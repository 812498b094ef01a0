// Package circuit is the arithmetic-circuit front-end of the zk-SNARK
// stack: the compile stage of the paper's Figure 1 workflow. It offers two
// entry points:
//
//   - a programmatic Builder API (this file), and
//   - a small circuit language with a lexer, parser and compiler
//     (lexer.go, parser.go, compile.go) standing in for circom.
//
// Both produce an r1cs.System (the "ccs") plus a witness.Program — the
// wire-solving schedule the witness stage interprets.
package circuit

import (
	"fmt"
	"math/big"

	"zkperf/internal/ff"
	"zkperf/internal/r1cs"
	"zkperf/internal/witness"
)

// Wire is a handle to a value inside the circuit: a sparse linear
// combination of witness variables. Constants are combinations over the
// constant-1 wire only.
type Wire struct {
	lc r1cs.LinComb
}

// Builder incrementally constructs a constraint system and its solver
// program. Declare all inputs and outputs before creating any gate.
type Builder struct {
	fr   *ff.Field
	sys  *r1cs.System
	prog *witness.Program

	gateCount int
}

// NewBuilder returns an empty builder over the scalar field fr.
func NewBuilder(fr *ff.Field) *Builder {
	return &Builder{fr: fr, sys: r1cs.NewSystem(fr), prog: &witness.Program{}}
}

// Field returns the builder's scalar field.
func (b *Builder) Field() *ff.Field { return b.fr }

// varWire returns the wire that is exactly one witness variable.
func (b *Builder) varWire(v r1cs.Variable) Wire {
	var one ff.Element
	b.fr.One(&one)
	return Wire{lc: r1cs.LinComb{{Coeff: one, Var: v}}}
}

// PublicInput declares a named public input wire.
func (b *Builder) PublicInput(name string) Wire { return b.varWire(b.sys.AddPublic(name, false)) }

// PublicOutput declares a named public output wire. Outputs are public
// wires whose value the solver computes; bind them with BindOutput.
func (b *Builder) PublicOutput(name string) Wire { return b.varWire(b.sys.AddPublic(name, true)) }

// PrivateInput declares a named private input wire.
func (b *Builder) PrivateInput(name string) Wire { return b.varWire(b.sys.AddPrivate(name)) }

// Constant returns a wire holding the constant v.
func (b *Builder) Constant(v *big.Int) Wire {
	var c ff.Element
	b.fr.SetBigInt(&c, v)
	return Wire{lc: r1cs.LinComb{{Coeff: c, Var: r1cs.ConstOne}}}
}

// ConstantUint64 returns a wire holding the constant v.
func (b *Builder) ConstantUint64(v uint64) Wire {
	return b.Constant(new(big.Int).SetUint64(v))
}

// ConstantElement returns a wire holding the field constant v.
func (b *Builder) ConstantElement(v ff.Element) Wire {
	return Wire{lc: r1cs.LinComb{{Coeff: v, Var: r1cs.ConstOne}}}
}

// normalize merges duplicate variables and drops zero coefficients.
func (b *Builder) normalize(lc r1cs.LinComb) r1cs.LinComb {
	if len(lc) <= 1 {
		return lc
	}
	idx := make(map[r1cs.Variable]int, len(lc))
	out := make(r1cs.LinComb, 0, len(lc))
	for i := range lc {
		if j, ok := idx[lc[i].Var]; ok {
			b.fr.Add(&out[j].Coeff, &out[j].Coeff, &lc[i].Coeff)
			continue
		}
		idx[lc[i].Var] = len(out)
		out = append(out, lc[i])
	}
	filtered := out[:0]
	for i := range out {
		if !b.fr.IsZero(&out[i].Coeff) {
			filtered = append(filtered, out[i])
		}
	}
	return filtered
}

// Add returns x + y (free: no constraint).
func (b *Builder) Add(x, y Wire) Wire {
	lc := make(r1cs.LinComb, 0, len(x.lc)+len(y.lc))
	lc = append(lc, x.lc...)
	lc = append(lc, y.lc...)
	return Wire{lc: b.normalize(lc)}
}

// Sub returns x − y (free).
func (b *Builder) Sub(x, y Wire) Wire {
	lc := make(r1cs.LinComb, 0, len(x.lc)+len(y.lc))
	lc = append(lc, x.lc...)
	for i := range y.lc {
		var neg ff.Element
		b.fr.Neg(&neg, &y.lc[i].Coeff)
		lc = append(lc, r1cs.Term{Coeff: neg, Var: y.lc[i].Var})
	}
	return Wire{lc: b.normalize(lc)}
}

// Neg returns −x (free).
func (b *Builder) Neg(x Wire) Wire { return b.Sub(Wire{}, x) }

// mulConst returns c·x (free).
func (b *Builder) mulConst(x Wire, c *ff.Element) Wire {
	lc := make(r1cs.LinComb, len(x.lc))
	for i := range x.lc {
		lc[i].Var = x.lc[i].Var
		b.fr.Mul(&lc[i].Coeff, &x.lc[i].Coeff, c)
	}
	return Wire{lc: b.normalize(lc)}
}

// constValue returns (v, true) if the wire is a pure constant.
func (b *Builder) constValue(x Wire) (ff.Element, bool) {
	var v ff.Element
	if len(x.lc) == 0 {
		return v, true
	}
	if len(x.lc) == 1 && x.lc[0].Var == r1cs.ConstOne {
		return x.lc[0].Coeff, true
	}
	return v, false
}

// Mul returns x·y. If either operand is constant the product is free;
// otherwise a multiplication gate is created: one internal wire, one
// constraint, one solver instruction.
func (b *Builder) Mul(x, y Wire) Wire {
	if c, ok := b.constValue(x); ok {
		return b.mulConst(y, &c)
	}
	if c, ok := b.constValue(y); ok {
		return b.mulConst(x, &c)
	}
	out := b.sys.AddInternal()
	outW := b.varWire(out)
	b.sys.AddConstraint(x.lc, y.lc, outW.lc)
	b.prog.Instructions = append(b.prog.Instructions, witness.Instruction{
		Op: witness.OpMul, L: x.lc, R: y.lc, Out: out,
	})
	b.gateCount++
	return outW
}

// Square returns x².
func (b *Builder) Square(x Wire) Wire { return b.Mul(x, x) }

// Inverse returns 1/x, constraining x·out = 1. Witness solving fails if
// x = 0.
func (b *Builder) Inverse(x Wire) Wire {
	out := b.sys.AddInternal()
	outW := b.varWire(out)
	one := b.ConstantUint64(1)
	b.sys.AddConstraint(x.lc, outW.lc, one.lc)
	b.prog.Instructions = append(b.prog.Instructions, witness.Instruction{
		Op: witness.OpInverse, L: x.lc, Out: out,
	})
	b.gateCount++
	return outW
}

// AssertEqual adds the constraint x == y.
func (b *Builder) AssertEqual(x, y Wire) {
	one := b.ConstantUint64(1)
	b.sys.AddConstraint(x.lc, one.lc, y.lc)
}

// AssertBoolean adds the constraint x·(x−1) == 0.
func (b *Builder) AssertBoolean(x Wire) {
	xm1 := b.Sub(x, b.ConstantUint64(1))
	var zero Wire
	b.sys.AddConstraint(x.lc, xm1.lc, zero.lc)
}

// BindOutput constrains a declared output wire to equal expr and records
// the solver instruction that computes it.
func (b *Builder) BindOutput(out Wire, expr Wire) error {
	if len(out.lc) != 1 || !b.fr.IsOne(&out.lc[0].Coeff) {
		return fmt.Errorf("circuit: BindOutput target must be a bare output wire")
	}
	v := out.lc[0].Var
	if int(v) > b.sys.NumPublic {
		return fmt.Errorf("circuit: BindOutput target is not a public wire")
	}
	one := b.ConstantUint64(1)
	b.sys.AddConstraint(expr.lc, one.lc, out.lc)
	b.prog.Instructions = append(b.prog.Instructions, witness.Instruction{
		Op: witness.OpLinear, L: expr.lc, Out: v,
	})
	return nil
}

// ToBits decomposes x into n little-endian boolean wires, constraining
// each bit and the recomposition Σ 2ⁱ·bᵢ == x. It uses solver hints for
// the bit values (the decomposition is not expressible as gates).
func (b *Builder) ToBits(x Wire, n int) []Wire {
	bits := make([]Wire, n)
	var sum Wire
	var pow ff.Element
	b.fr.One(&pow)
	for i := 0; i < n; i++ {
		out := b.sys.AddInternal()
		bits[i] = b.varWire(out)
		b.prog.Instructions = append(b.prog.Instructions, witness.Instruction{
			Op: witness.OpBit, L: x.lc, Out: out, Aux: i,
		})
		b.AssertBoolean(bits[i])
		sum = b.Add(sum, b.mulConst(bits[i], &pow))
		b.fr.Double(&pow, &pow)
		b.gateCount++
	}
	b.AssertEqual(sum, x)
	return bits
}

// NumGates returns the number of multiplication/hint gates created so far.
func (b *Builder) NumGates() int { return b.gateCount }

// Compile finalizes the builder, returning the constraint system and the
// solver program.
func (b *Builder) Compile() (*r1cs.System, *witness.Program) {
	return b.sys, b.prog
}
