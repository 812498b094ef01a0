// Package witness implements the witness stage of the zk-SNARK workflow:
// given public and private input assignments, it executes the solver
// program emitted by the circuit compiler to fill in every internal wire,
// producing witnessFull (for the prover) and witnessPublic (for the
// verifier).
//
// The solver is a small interpreter over linear-combination instructions —
// deliberately mirroring how circom's generated WASM walks a compiled
// program to solve signals one at a time. That interpretive structure is
// exactly what makes the witness stage control-flow intensive in the
// paper's instruction-mix analysis.
package witness

import (
	"fmt"

	"zkperf/internal/ff"
	"zkperf/internal/r1cs"
)

// OpKind is the operation an instruction applies to its operands.
type OpKind uint8

const (
	// OpMul computes out = ⟨L,w⟩ · ⟨R,w⟩.
	OpMul OpKind = iota
	// OpLinear computes out = ⟨L,w⟩ (R unused).
	OpLinear
	// OpInverse computes out = ⟨L,w⟩⁻¹ (a solver hint; the corresponding
	// constraint out·⟨L,w⟩ = 1 is checked separately).
	OpInverse
	// OpBit computes out = bit Aux of the canonical value of ⟨L,w⟩ — the
	// bit-decomposition hint used by range checks. The accompanying
	// boolean and recomposition constraints are added by the builder.
	OpBit
)

// Instruction solves one wire.
type Instruction struct {
	Op   OpKind
	L, R r1cs.LinComb
	Out  r1cs.Variable
	Aux  int // OpBit: which bit to extract
}

// Program is the ordered wire-solving schedule for a circuit. Instructions
// only reference wires solved by earlier instructions or inputs.
type Program struct {
	Instructions []Instruction
}

// Assignment maps input names to field-element values.
type Assignment map[string]ff.Element

// Witness holds the solved wire values.
type Witness struct {
	// Full is the complete vector (constant wire, public, private,
	// internal) used by the proving stage.
	Full []ff.Element
	// Public is the prefix [1, public wires] used by the verifying stage.
	Public []ff.Element
}

// Solve executes the program against the constraint system's wire layout,
// producing the full and public witness vectors. It fails if an input is
// missing from the assignment or if the solved witness does not satisfy
// the system.
func Solve(sys *r1cs.System, prog *Program, assign Assignment) (*Witness, error) {
	fr := sys.Fr
	w := make([]ff.Element, sys.NumVariables())
	fr.One(&w[0])

	for i, name := range sys.PublicNames {
		if sys.PublicIsOutput[i] {
			continue // solved by the program, not bound from inputs
		}
		v, ok := assign[name]
		if !ok {
			return nil, fmt.Errorf("witness: missing input %q", name)
		}
		w[1+i] = v
	}
	for i, name := range sys.PrivateNames {
		v, ok := assign[name]
		if !ok {
			return nil, fmt.Errorf("witness: missing input %q", name)
		}
		w[1+sys.NumPublic+i] = v
	}

	for i := range prog.Instructions {
		ins := &prog.Instructions[i]
		switch ins.Op {
		case OpMul:
			l := sys.EvalLC(ins.L, w)
			r := sys.EvalLC(ins.R, w)
			fr.Mul(&w[ins.Out], &l, &r)
		case OpLinear:
			w[ins.Out] = sys.EvalLC(ins.L, w)
		case OpInverse:
			l := sys.EvalLC(ins.L, w)
			if fr.IsZero(&l) {
				return nil, fmt.Errorf("witness: instruction %d inverts zero", i)
			}
			fr.Inverse(&w[ins.Out], &l)
		case OpBit:
			l := sys.EvalLC(ins.L, w)
			bit := fr.BigInt(&l).Bit(ins.Aux)
			fr.SetUint64(&w[ins.Out], uint64(bit))
		default:
			return nil, fmt.Errorf("witness: unknown opcode %d at instruction %d", ins.Op, i)
		}
	}

	if bad, ok := sys.IsSatisfied(w); !ok {
		return nil, fmt.Errorf("witness: constraint %d not satisfied", bad)
	}

	pub := make([]ff.Element, 1+sys.NumPublic)
	copy(pub, w[:1+sys.NumPublic])
	return &Witness{Full: w, Public: pub}, nil
}
