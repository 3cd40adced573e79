package dynsched

import (
	"encoding/json"
	"testing"
)

// FuzzParseScenario checks the service-facing parsing contract:
// arbitrary bytes must either parse into a valid scenario or return an
// error — never panic — and every accepted scenario must re-encode,
// re-parse, and fingerprint stably (the invariant the dynschedd result
// cache rests on). `go test` exercises the seed corpus; `go test
// -fuzz=FuzzParseScenario` explores from it.
func FuzzParseScenario(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`null`,
		`42`,
		`"scenario"`,
		`[{"name":"x"}]`,
		`{"name":"x","sim":{"slots":10}}`,
		`{"name":"x","sim":{"slots":-1}}`,
		`{"name":"x","sim":{"slots":1e999}}`,
		`{"name":"x","sim":{"slots":10},"modle":{}}`,
		`{"name":"x","sim":{"slots":10},"sweep":{"axis":"spin","values":[1]}}`,
		`{"name":"x","sim":{"slots":10},"sweep":{"axis":"lambda","values":[]}}`,
		`{"name":"x","sim":{"slots":10},"traffic":{"lambda":1e308,"pattern":"burst"}}`,
		`{"name":"x","sim":{"slots":10},"traffic":{"lambda":NaN}}`,
		"{\"name\":\"\x00\",\"sim\":{\"slots\":10}}",
		`{"name":"x","sim":{"slots":10}`,
		`{"name":"x","network":{"nodes":99999999999999999999}}`,
		`{"name":"x","model":{"kind":"identity"},"sim":{"slots":2000}}`,
		`{"name":"golden","description":"pinned fingerprint fixture","network":{"topology":"line","nodes":6,"hops":5},"model":{"kind":"identity","loss":0.1},"traffic":{"pattern":"stochastic","lambda":0.35},"protocol":{"alg":"full-parallel","eps":0.25},"sim":{"slots":50000,"seed":7,"warmupFrac":0.1},"sweep":{}}`,
		// Grid-sweep specs: the multi-axis SweepSpec surface is fuzzed
		// from day one — valid grids, duplicate axes, empty value lists,
		// both forms at once, and non-integral slots values.
		`{"name":"g","sim":{"slots":10},"sweep":{"axes":[{"axis":"lambda","values":[0.1,0.2]},{"axis":"eps","values":[0.25,0.5]}]}}`,
		`{"name":"g","sim":{"slots":10},"sweep":{"axes":[{"axis":"lambda","values":[0.1]},{"axis":"lambda","values":[0.2]}]}}`,
		`{"name":"g","sim":{"slots":10},"sweep":{"axes":[{"axis":"loss","values":[]}]}}`,
		`{"name":"g","sim":{"slots":10},"sweep":{"axis":"eps","values":[0.1],"axes":[{"axis":"lambda","values":[0.1]}]}}`,
		`{"name":"g","sim":{"slots":10},"sweep":{"axes":[{"axis":"slots","values":[100.5]}]}}`,
		`{"name":"g","sim":{"slots":10},"sweep":{"axes":[{"axis":"slots","values":[1000,2000]},{"axis":"lambda","values":[0.1,1e308]}]}}`,
		`{"name":"g","sim":{"slots":10},"sweep":{"axes":[]}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data)
		if err != nil {
			return // malformed input must error, and it did
		}
		// Accepted scenarios satisfy the round-trip + fingerprint
		// invariants.
		enc, err := sc.EncodeJSON()
		if err != nil {
			t.Fatalf("accepted scenario does not encode: %v", err)
		}
		back, err := ParseScenario(enc)
		if err != nil {
			t.Fatalf("encoded scenario does not re-parse: %v\n%s", err, enc)
		}
		if back.Hash() != sc.Hash() {
			t.Fatalf("hash unstable across round trip: %s vs %s", back.Hash(), sc.Hash())
		}
		doc, err := sc.CanonicalJSON()
		if err != nil {
			t.Fatalf("accepted scenario has no canonical form: %v", err)
		}
		if !json.Valid(doc) {
			t.Fatalf("canonical form is not valid JSON: %s", doc)
		}
	})
}
