//go:build !amd64

package mathx

import "math"

// Outside amd64 the gain kernel is the math package itself: its ports
// (kernel_amd64.go) follow the amd64 assembly, which other
// architectures do not run.

// Hypot returns math.Hypot(p, q).
func Hypot(p, q float64) float64 { return math.Hypot(p, q) }

// Log10 returns math.Log10(x).
func Log10(x float64) float64 { return math.Log10(x) }

// exp returns math.Exp(x).
func exp(x float64) float64 { return math.Exp(x) }
