package workload

import (
	"math"
	"testing"
)

// TestZipfianShape draws a large sample and chi-squared-tests it
// against the exact Zipf pmf rand.Zipf implements:
// P(k) ∝ (1+k)^(-s) over [0, n). A generator that silently became
// uniform, shifted, or mis-skewed blows the bound by orders of
// magnitude; the true distribution lands near the degrees of freedom.
func TestZipfianShape(t *testing.T) {
	const (
		n       = 100
		s       = 1.5
		samples = 200_000
	)
	c := NewZipfian(7, n, s)
	obs := make([]float64, n)
	for i := 0; i < samples; i++ {
		k := c.Next()
		if k >= n {
			t.Fatalf("key %d out of range [0,%d)", k, n)
		}
		obs[k]++
	}

	// Exact pmf of the implemented distribution.
	var norm float64
	pmf := make([]float64, n)
	for k := 0; k < n; k++ {
		pmf[k] = math.Pow(1+float64(k), -s)
		norm += pmf[k]
	}
	var chi2 float64
	for k := 0; k < n; k++ {
		exp := samples * pmf[k] / norm
		d := obs[k] - exp
		chi2 += d * d / exp
	}
	// dof = n-1 = 99; E[chi2] ≈ 99, σ ≈ sqrt(2*99) ≈ 14. A 2*dof
	// bound is ~7σ — loose enough for any healthy seed, tight enough
	// to reject a wrong distribution (uniform scores >100k here).
	if dof := float64(n - 1); chi2 > 2*dof {
		t.Fatalf("zipfian chi-squared %.1f exceeds bound %.1f (dof %.0f)", chi2, 2*dof, dof)
	}

	// Skew sanity: the hottest key dominates, and the head carries
	// most of the mass (s=1.5 puts >60%% of accesses on the top 10%%).
	maxIdx := 0
	for k := range obs {
		if obs[k] > obs[maxIdx] {
			maxIdx = k
		}
	}
	if maxIdx != 0 {
		t.Fatalf("hottest key = %d, want 0", maxIdx)
	}
	var head float64
	for k := 0; k < n/10; k++ {
		head += obs[k]
	}
	if frac := head / samples; frac < 0.6 {
		t.Fatalf("top 10%% of keys got %.2f of accesses, want > 0.6", frac)
	}
}

// TestUniformCoverage checks the uniform chooser visits the whole key
// space (20k draws over 1k keys: coupon-collector leaves a key unseen
// with probability ~2e-6) and stays roughly flat.
// TestChooserDeterminism pins the seeded-reproducibility contract the
// bench driver's oracle differential depends on.
func TestChooserDeterminism(t *testing.T) {
	for name, mk := range map[string]func(seed int64) KeyChooser{
		"zipfian": func(seed int64) KeyChooser { return NewZipfian(seed, 5000, 1.2) },
	} {
		a, b := mk(42), mk(42)
		diffSeed := mk(43)
		sawDiff := false
		for i := 0; i < 1000; i++ {
			x, y := a.Next(), b.Next()
			if x != y {
				t.Fatalf("%s: same seed diverged at draw %d: %d vs %d", name, i, x, y)
			}
			if x != diffSeed.Next() {
				sawDiff = true
			}
		}
		if !sawDiff {
			t.Fatalf("%s: different seeds produced identical streams", name)
		}
	}
}
