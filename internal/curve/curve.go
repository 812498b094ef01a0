package curve

import (
	"math/big"
	"sync"

	"zkperf/internal/ff"
	"zkperf/internal/tower"
)

// TwistType distinguishes the two sextic-twist shapes: a D(ivisive) twist
// has equation y² = x³ + b/ξ (BN254); an M(ultiplicative) twist has
// y² = x³ + b·ξ (BLS12-381). The pairing's untwisting map depends on it.
type TwistType int

const (
	// DTwist is the divisive twist, y² = x³ + b/ξ.
	DTwist TwistType = iota
	// MTwist is the multiplicative twist, y² = x³ + b·ξ.
	MTwist
)

// G1Affine, G1Jac, G2Affine and G2Jac are the concrete point types.
type (
	G1Affine = Affine[ff.Element]
	G1Jac    = Jac[ff.Element]
	G2Affine = Affine[tower.E2]
	G2Jac    = Jac[tower.E2]
)

// Curve bundles the fields, tower, twist and generators of one
// pairing-friendly curve, plus the pairing loop constants.
type Curve struct {
	Name string
	Fp   *ff.Field
	Fr   *ff.Field
	Tw   *tower.Tower

	B  ff.Element // G1 equation: y² = x³ + B
	B2 tower.E2   // G2 (twist) equation: y² = x³ + B2

	G1Gen G1Affine
	G2Gen G2Affine

	Twist TwistType

	// Pairing constants: the Miller loop count (6x+2 for BN, |x| for BLS)
	// and whether the curve parameter x is negative (BLS12-381).
	LoopCount *big.Int
	LoopNeg   bool
	IsBN      bool // BN curves append the two Frobenius line steps

	g1ops fpOps
	g2ops e2Ops

	// GLV endomorphism constants (β, λ, reduced lattice basis), derived
	// lazily on first MSM use and validated against the generators; see
	// glv.go.
	glvOnce sync.Once
	glv     *glvData
}

// fpOps adapts *ff.Field to the generic Ops interface.
type fpOps struct{ f *ff.Field }

func (o fpOps) Set(z, x *ff.Element)        { o.f.Set(z, x) }
func (o fpOps) SetZero(z *ff.Element)       { o.f.Zero(z) }
func (o fpOps) SetOne(z *ff.Element)        { o.f.One(z) }
func (o fpOps) Add(z, x, y *ff.Element)     { o.f.Add(z, x, y) }
func (o fpOps) Sub(z, x, y *ff.Element)     { o.f.Sub(z, x, y) }
func (o fpOps) Neg(z, x *ff.Element)        { o.f.Neg(z, x) }
func (o fpOps) Mul(z, x, y *ff.Element)     { o.f.Mul(z, x, y) }
func (o fpOps) Square(z, x *ff.Element)     { o.f.Square(z, x) }
func (o fpOps) Double(z, x *ff.Element)     { o.f.Double(z, x) }
func (o fpOps) Inverse(z, x *ff.Element)    { o.f.Inverse(z, x) }
func (o fpOps) IsZero(x *ff.Element) bool   { return o.f.IsZero(x) }
func (o fpOps) Equal(x, y *ff.Element) bool { return o.f.Equal(x, y) }

// e2Ops adapts *tower.Tower Fp2 arithmetic to the generic Ops interface.
type e2Ops struct{ t *tower.Tower }

func (o e2Ops) Set(z, x *tower.E2)        { o.t.E2Set(z, x) }
func (o e2Ops) SetZero(z *tower.E2)       { o.t.E2Zero(z) }
func (o e2Ops) SetOne(z *tower.E2)        { o.t.E2One(z) }
func (o e2Ops) Add(z, x, y *tower.E2)     { o.t.E2Add(z, x, y) }
func (o e2Ops) Sub(z, x, y *tower.E2)     { o.t.E2Sub(z, x, y) }
func (o e2Ops) Neg(z, x *tower.E2)        { o.t.E2Neg(z, x) }
func (o e2Ops) Mul(z, x, y *tower.E2)     { o.t.E2Mul(z, x, y) }
func (o e2Ops) Square(z, x *tower.E2)     { o.t.E2Square(z, x) }
func (o e2Ops) Double(z, x *tower.E2)     { o.t.E2Double(z, x) }
func (o e2Ops) Inverse(z, x *tower.E2)    { o.t.E2Inverse(z, x) }
func (o e2Ops) IsZero(x *tower.E2) bool   { return o.t.E2IsZero(x) }
func (o e2Ops) Equal(x, y *tower.E2) bool { return o.t.E2Equal(x, y) }

// NewBN254 constructs the BN254 (alt_bn128 / "BN128") curve context.
func NewBN254() *Curve {
	fp := ff.NewBN254Fp()
	fr := ff.NewBN254Fr()
	tw := tower.New(fp, 9, 1)
	c := &Curve{Name: "BN254", Fp: fp, Fr: fr, Tw: tw, Twist: DTwist, IsBN: true}
	c.g1ops = fpOps{fp}
	c.g2ops = e2Ops{tw}

	c.B = fp.MustElement("3")
	// B2 = 3/ξ for the D-twist.
	var three tower.E2
	fp.SetUint64(&three.A0, 3)
	var xiInv tower.E2
	tw.E2Inverse(&xiInv, &tw.Xi)
	tw.E2Mul(&c.B2, &three, &xiInv)

	c.G1Gen = G1Affine{
		X: fp.MustElement("1"),
		Y: fp.MustElement("2"),
	}
	c.G2Gen = G2Affine{
		X: tower.E2{
			A0: fp.MustElement("10857046999023057135944570762232829481370756359578518086990519993285655852781"),
			A1: fp.MustElement("11559732032986387107991004021392285783925812861821192530917403151452391805634"),
		},
		Y: tower.E2{
			A0: fp.MustElement("8495653923123431417604973247489272438418190587263600148770280649306958101930"),
			A1: fp.MustElement("4082367875863433681332203403145435568316851327593401208105741076214120093531"),
		},
	}

	// x = 4965661367192848881; Miller loop runs over 6x+2.
	x, _ := new(big.Int).SetString("4965661367192848881", 10)
	c.LoopCount = new(big.Int).Mul(x, big.NewInt(6))
	c.LoopCount.Add(c.LoopCount, big.NewInt(2))
	c.LoopNeg = false
	return c
}

// NewBLS12381 constructs the BLS12-381 curve context.
func NewBLS12381() *Curve {
	fp := ff.NewBLS12381Fp()
	fr := ff.NewBLS12381Fr()
	tw := tower.New(fp, 1, 1)
	c := &Curve{Name: "BLS12-381", Fp: fp, Fr: fr, Tw: tw, Twist: MTwist, IsBN: false}
	c.g1ops = fpOps{fp}
	c.g2ops = e2Ops{tw}

	c.B = fp.MustElement("4")
	// B2 = 4·ξ = 4(1+i) for the M-twist.
	var four tower.E2
	fp.SetUint64(&four.A0, 4)
	tw.E2Mul(&c.B2, &four, &tw.Xi)

	c.G1Gen = G1Affine{
		X: fp.MustElement("3685416753713387016781088315183077757961620795782546409894578378688607592378376318836054947676345821548104185464507"),
		Y: fp.MustElement("1339506544944476473020471379941921221584933875938349620426543736416511423956333506472724655353366534992391756441569"),
	}
	c.G2Gen = G2Affine{
		X: tower.E2{
			A0: fp.MustElement("352701069587466618187139116011060144890029952792775240219908644239793785735715026873347600343865175952761926303160"),
			A1: fp.MustElement("3059144344244213709971259814753781636986470325476647558659373206291635324768958432433509563104347017837885763365758"),
		},
		Y: tower.E2{
			A0: fp.MustElement("1985150602287291935568054521177171638300868978215655730859378665066344726373823718423869104263333984641494340347905"),
			A1: fp.MustElement("927553665492332455747201965776037880757740193453592970025027978793976877002675564980949289727957565575433344219582"),
		},
	}

	// x = −0xd201000000010000; the Miller loop runs over |x| and the result
	// is conjugated.
	x, _ := new(big.Int).SetString("d201000000010000", 16)
	c.LoopCount = x
	c.LoopNeg = true
	return c
}

// NewCurve returns the curve context for name ("BN254"/"BN128" or
// "BLS12-381"/"BLS12381"). It returns nil for unknown names.
func NewCurve(name string) *Curve {
	switch name {
	case "BN254", "BN128", "bn254", "bn128":
		return NewBN254()
	case "BLS12-381", "BLS12381", "bls12-381", "bls12381":
		return NewBLS12381()
	}
	return nil
}

// ---------- G1 operations ----------

// G1Infinity sets p to the identity.
func (c *Curve) G1Infinity(p *G1Jac) { jacSetInfinity[ff.Element](c.g1ops, p) }

// G1IsInfinity reports whether p is the identity.
func (c *Curve) G1IsInfinity(p *G1Jac) bool { return jacIsInfinity[ff.Element](c.g1ops, p) }

// G1FromAffine lifts an affine point into Jacobian coordinates.
func (c *Curve) G1FromAffine(z *G1Jac, a *G1Affine) { fromAffine[ff.Element](c.g1ops, z, a) }

// G1ToAffine normalizes p to affine coordinates.
func (c *Curve) G1ToAffine(z *G1Affine, p *G1Jac) { toAffine[ff.Element](c.g1ops, z, p) }

// G1Add sets z = p + q.
func (c *Curve) G1Add(z, p, q *G1Jac) { jacAdd[ff.Element](c.g1ops, z, p, q) }

// G1AddAffine sets z = p + q for affine q.
func (c *Curve) G1AddAffine(z, p *G1Jac, q *G1Affine) { jacAddAffine[ff.Element](c.g1ops, z, p, q) }

// G1Double sets z = 2p.
func (c *Curve) G1Double(z, p *G1Jac) { jacDouble[ff.Element](c.g1ops, z, p) }

// G1Neg sets z = −p.
func (c *Curve) G1Neg(z, p *G1Jac) { jacNeg[ff.Element](c.g1ops, z, p) }

// G1NegAffine sets z = −p in affine coordinates.
func (c *Curve) G1NegAffine(z, p *G1Affine) {
	z.Inf = p.Inf
	c.Fp.Set(&z.X, &p.X)
	c.Fp.Neg(&z.Y, &p.Y)
}

// G1Equal reports whether p == q as curve points.
func (c *Curve) G1Equal(p, q *G1Jac) bool { return jacEqual[ff.Element](c.g1ops, p, q) }

// G1ScalarMulBig sets z = [k]p.
func (c *Curve) G1ScalarMulBig(z, p *G1Jac, k *big.Int) {
	jacScalarMulBig[ff.Element](c.g1ops, z, p, k)
}

// G1ScalarMul sets z = [k]p for a scalar-field element k.
func (c *Curve) G1ScalarMul(z, p *G1Jac, k *ff.Element) {
	c.G1ScalarMulBig(z, p, c.Fr.BigInt(k))
}

// G1IsOnCurve reports whether the affine point satisfies the G1 equation.
func (c *Curve) G1IsOnCurve(p *G1Affine) bool { return isOnCurve[ff.Element](c.g1ops, p, &c.B) }

// G1BatchToAffine converts Jacobian points to affine with one inversion.
func (c *Curve) G1BatchToAffine(dst []G1Affine, src []G1Jac) {
	batchToAffine[ff.Element](c.g1ops, dst, src)
}

// ---------- G2 operations ----------

// G2Infinity sets p to the identity.
func (c *Curve) G2Infinity(p *G2Jac) { jacSetInfinity[tower.E2](c.g2ops, p) }

// G2IsInfinity reports whether p is the identity.
func (c *Curve) G2IsInfinity(p *G2Jac) bool { return jacIsInfinity[tower.E2](c.g2ops, p) }

// G2FromAffine lifts an affine point into Jacobian coordinates.
func (c *Curve) G2FromAffine(z *G2Jac, a *G2Affine) { fromAffine[tower.E2](c.g2ops, z, a) }

// G2ToAffine normalizes p to affine coordinates.
func (c *Curve) G2ToAffine(z *G2Affine, p *G2Jac) { toAffine[tower.E2](c.g2ops, z, p) }

// G2Add sets z = p + q.
func (c *Curve) G2Add(z, p, q *G2Jac) { jacAdd[tower.E2](c.g2ops, z, p, q) }

// G2AddAffine sets z = p + q for affine q.
func (c *Curve) G2AddAffine(z, p *G2Jac, q *G2Affine) { jacAddAffine[tower.E2](c.g2ops, z, p, q) }

// G2Double sets z = 2p.
func (c *Curve) G2Double(z, p *G2Jac) { jacDouble[tower.E2](c.g2ops, z, p) }

// G2Neg sets z = −p.
func (c *Curve) G2Neg(z, p *G2Jac) { jacNeg[tower.E2](c.g2ops, z, p) }

// G2Equal reports whether p == q as curve points.
func (c *Curve) G2Equal(p, q *G2Jac) bool { return jacEqual[tower.E2](c.g2ops, p, q) }

// G2ScalarMulBig sets z = [k]p.
func (c *Curve) G2ScalarMulBig(z, p *G2Jac, k *big.Int) {
	jacScalarMulBig[tower.E2](c.g2ops, z, p, k)
}

// G2ScalarMul sets z = [k]p for a scalar-field element k.
func (c *Curve) G2ScalarMul(z, p *G2Jac, k *ff.Element) {
	c.G2ScalarMulBig(z, p, c.Fr.BigInt(k))
}

// G2IsOnCurve reports whether the affine point satisfies the twist equation.
func (c *Curve) G2IsOnCurve(p *G2Affine) bool { return isOnCurve[tower.E2](c.g2ops, p, &c.B2) }

// G2BatchToAffine converts Jacobian points to affine with one inversion.
func (c *Curve) G2BatchToAffine(dst []G2Affine, src []G2Jac) {
	batchToAffine[tower.E2](c.g2ops, dst, src)
}
