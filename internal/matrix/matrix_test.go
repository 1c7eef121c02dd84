package matrix

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return m
}

func maxAbsDiff(a, b *Matrix) float64 {
	var worst float64
	for i := range a.Data {
		if d := cmplx.Abs(a.Data[i] - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestIdentityMul(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := randomMatrix(r, 3, 3)
	if d := maxAbsDiff(a.Mul(Identity(3)), a); d > 1e-14 {
		t.Errorf("A*I differs from A by %g", d)
	}
	if d := maxAbsDiff(Identity(3).Mul(a), a); d > 1e-14 {
		t.Errorf("I*A differs from A by %g", d)
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	b := FromRows([][]complex128{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := FromRows([][]complex128{{19, 22}, {43, 50}})
	if d := maxAbsDiff(c, want); d > 1e-14 {
		t.Errorf("product wrong by %g:\n%v", d, c)
	}
}

func TestMulComplex(t *testing.T) {
	a := FromRows([][]complex128{{1i, 2}})
	b := FromRows([][]complex128{{3}, {4i}})
	c := a.Mul(b)
	// 1i*3 + 2*4i = 3i + 8i = 11i
	if d := cmplx.Abs(c.At(0, 0) - 11i); d > 1e-14 {
		t.Errorf("complex product = %v, want 11i", c.At(0, 0))
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a := randomMatrix(r, 4, 3)
	v := []complex128{1 + 1i, -2, 0.5i}
	got := a.MulVec(v)
	colV := New(3, 1)
	copy(colV.Data, v)
	want := a.Mul(colV)
	for i := range got {
		if cmplx.Abs(got[i]-want.At(i, 0)) > 1e-14 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestHermitianProperty(t *testing.T) {
	// (AB)^H = B^H A^H
	r := rand.New(rand.NewSource(3))
	a := randomMatrix(r, 3, 4)
	b := randomMatrix(r, 4, 2)
	lhs := a.Mul(b).Hermitian()
	rhs := b.Hermitian().Mul(a.Hermitian())
	if d := maxAbsDiff(lhs, rhs); d > 1e-12 {
		t.Errorf("(AB)^H != B^H A^H, diff %g", d)
	}
}

func TestHermitian(t *testing.T) {
	a := FromRows([][]complex128{{1 + 1i, 2}, {3, 4 - 2i}})
	h := a.Hermitian()
	if h.At(0, 1) != 3 || h.At(1, 0) != 2 {
		t.Error("hermitian misplaced elements")
	}
	if h.At(0, 0) != 1-1i {
		t.Error("hermitian must conjugate")
	}
}

func TestAddScale(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	b := FromRows([][]complex128{{4, 3}, {2, 1}})
	if got := a.Add(b).At(0, 0); got != 5 {
		t.Errorf("Add = %v", got)
	}
	if got := a.Scale(2i).At(0, 1); got != 4i {
		t.Errorf("Scale = %v", got)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for n := 1; n <= 6; n++ {
		// Diagonal loading guarantees the random matrix is well conditioned.
		a := randomMatrix(r, n, n).Add(Identity(n).Scale(complex(float64(n)*3, 0)))
		inv, err := a.Inverse()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := maxAbsDiff(a.Mul(inv), Identity(n)); d > 1e-9 {
			t.Errorf("n=%d: A*inv(A) off identity by %g", n, d)
		}
		if d := maxAbsDiff(inv.Mul(a), Identity(n)); d > 1e-9 {
			t.Errorf("n=%d: inv(A)*A off identity by %g", n, d)
		}
	}
}

func TestInverseSingular(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {2, 4}})
	if _, err := a.Inverse(); err == nil {
		t.Error("inverse of singular matrix should fail")
	}
}

func TestInverseNonSquare(t *testing.T) {
	if _, err := New(2, 3).Inverse(); err == nil {
		t.Error("inverse of non-square matrix should fail")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	a := FromRows([][]complex128{{3, 0}, {0, 4i}})
	if got := a.FrobeniusNorm(); math.Abs(got-5) > 1e-14 {
		t.Errorf("Frobenius = %v, want 5", got)
	}
}

func checkSVD(t *testing.T, a *Matrix, tol float64) {
	t.Helper()
	res := a.SVD()
	k := len(res.S)
	// Singular values non-negative and descending.
	for i := 0; i < k; i++ {
		if res.S[i] < 0 {
			t.Fatalf("negative singular value %v", res.S[i])
		}
		if i > 0 && res.S[i] > res.S[i-1]+tol {
			t.Fatalf("singular values not sorted: %v", res.S)
		}
	}
	// U and V have orthonormal columns.
	if d := maxAbsDiff(res.U.Hermitian().Mul(res.U), Identity(k)); d > tol {
		t.Fatalf("U columns not orthonormal: %g", d)
	}
	if d := maxAbsDiff(res.V.Hermitian().Mul(res.V), Identity(k)); d > tol {
		t.Fatalf("V columns not orthonormal: %g", d)
	}
	// Reconstruction A = U S V^H.
	s := New(k, k)
	for i := 0; i < k; i++ {
		s.Set(i, i, complex(res.S[i], 0))
	}
	recon := res.U.Mul(s).Mul(res.V.Hermitian())
	if d := maxAbsDiff(recon, a); d > tol*(1+a.FrobeniusNorm()) {
		t.Fatalf("SVD reconstruction off by %g", d)
	}
}

func TestSVDShapes(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {4, 2}, {2, 4}, {6, 3}, {3, 6}, {8, 8}} {
		a := randomMatrix(r, shape[0], shape[1])
		checkSVD(t, a, 1e-9)
	}
}

func TestSVDDiagonal(t *testing.T) {
	a := FromRows([][]complex128{{3, 0}, {0, 7}})
	s := a.SingularValues()
	if math.Abs(s[0]-7) > 1e-12 || math.Abs(s[1]-3) > 1e-12 {
		t.Errorf("singular values of diag(3,7) = %v", s)
	}
}

func TestSVDRankDeficient(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {2, 4}})
	s := a.SingularValues()
	if s[1] > 1e-10 {
		t.Errorf("rank-1 matrix has second singular value %v", s[1])
	}
	if math.Abs(s[0]-5) > 1e-10 { // ||A||_F = 5 for this rank-1 matrix
		t.Errorf("first singular value = %v, want 5", s[0])
	}
}

func TestSVDFrobeniusInvariant(t *testing.T) {
	// sum of squared singular values equals squared Frobenius norm.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 2 + r.Intn(4)
		cols := 2 + r.Intn(4)
		a := randomMatrix(r, rows, cols)
		var ssq float64
		for _, s := range a.SingularValues() {
			ssq += s * s
		}
		fn := a.FrobeniusNorm()
		return math.Abs(ssq-fn*fn) < 1e-8*(1+fn*fn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSVDOfUnitary(t *testing.T) {
	// All singular values of a unitary matrix are 1; use a Givens-like one.
	th := 0.7
	u := FromRows([][]complex128{
		{complex(math.Cos(th), 0), complex(-math.Sin(th), 0)},
		{complex(math.Sin(th), 0), complex(math.Cos(th), 0)},
	})
	for _, s := range u.SingularValues() {
		if math.Abs(s-1) > 1e-12 {
			t.Errorf("unitary singular value %v != 1", s)
		}
	}
}

func TestPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mul with mismatched shapes should panic")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}
