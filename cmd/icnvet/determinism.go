package main

import (
	"go/ast"
	"go/types"
)

// determinismScopes are the packages whose results must be exactly
// reproducible from a seed: the simulator, the cache-policy zoo it
// provisions, the experiment sweeps, the fault-injection harness, and the
// trace generators/codecs feeding them.
// Randomness there must flow from an injected seeded *rand.Rand, never the
// wall clock or the global generator.
var determinismScopes = []string{
	"idicn/internal/sim",
	"idicn/internal/cache",
	"idicn/internal/experiments",
	"idicn/internal/faults",
	"idicn/internal/trace",
}

// clockFuncs are time-package functions that read the wall clock.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// globalRandFuncs are the math/rand (and v2) package-level draws backed by
// the shared, unseeded global source. Constructors (New, NewSource,
// NewZipf, NewPCG, NewChaCha8) are fine: they are how seeded generators
// are built.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint32": true, "Uint64": true, "Uint32N": true, "Uint64N": true,
	"Uint": true, "UintN": true,
	"Float32": true, "Float64": true, "NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

// runDeterminism flags wall-clock reads, global-rand draws, and
// map-iteration in the seeded packages. Ranging over a map is flagged even
// when the body looks order-insensitive: if it genuinely is, say so with
// an //icnvet:ignore determinism directive where the next reader can see
// the claim.
func runDeterminism(u *Unit) []Finding {
	inScope := false
	for _, s := range determinismScopes {
		if pathWithin(u.Path, s) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	var out []Finding
	for _, f := range u.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := u.calleeFunc(n)
				if fn == nil || fn.Signature().Recv() != nil {
					return true
				}
				switch funcPkgPath(fn) {
				case "time":
					if clockFuncs[fn.Name()] {
						out = append(out, u.finding("determinism", n.Pos(),
							"time.%s reads the wall clock; inject a clock or derive times from the seed", fn.Name()))
					}
				case "math/rand", "math/rand/v2":
					if globalRandFuncs[fn.Name()] {
						out = append(out, u.finding("determinism", n.Pos(),
							"rand.%s draws from the global generator; use an injected seeded *rand.Rand", fn.Name()))
					}
				}
			case *ast.RangeStmt:
				if t := u.typeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						out = append(out, u.finding("determinism", n.Pos(),
							"map iteration order is random; sort keys first or justify with //icnvet:ignore determinism"))
					}
				}
			}
			return true
		})
	}
	return out
}
