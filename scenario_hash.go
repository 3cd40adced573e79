package dynsched

// Canonical scenario fingerprints. A running service needs a stable
// content address for "the same experiment": two submissions of one
// spec — however they were built (struct literal, options, or JSON in
// any formatting) — must map to the same cache key. CanonicalJSON
// defines that form and Hash condenses it; internal/server keys its
// result cache on it.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
)

// CanonicalJSON renders the scenario in canonical form: object keys
// sorted, no insignificant whitespace, and numbers kept as the shortest
// JSON literals of the standard encoder (so re-encoding never drifts a
// float). Equal specs produce byte-identical canonical documents
// regardless of construction order or source formatting. Fields that
// cannot affect results are excluded: Observers are code, not data (as
// in EncodeJSON), and Sim.Parallel is an execution knob — serial and
// parallel runs are pinned bit-identical, so they are the same
// experiment and must share a content address.
func (s Scenario) CanonicalJSON() ([]byte, error) {
	s.Observers = nil
	s.Sim.Parallel = 0
	raw, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("dynsched: canonicalising scenario %q: %w", s.Name, err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber() // keep the number literals verbatim: no float drift
	var doc any
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("dynsched: canonicalising scenario %q: %w", s.Name, err)
	}
	var buf bytes.Buffer
	if err := writeCanonical(&buf, doc); err != nil {
		return nil, fmt.Errorf("dynsched: canonicalising scenario %q: %w", s.Name, err)
	}
	return buf.Bytes(), nil
}

// writeCanonical re-encodes a decoded JSON document with sorted object
// keys and no whitespace, passing number literals through untouched.
func writeCanonical(buf *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			kb, err := json.Marshal(k)
			if err != nil {
				return err
			}
			buf.Write(kb)
			buf.WriteByte(':')
			if err := writeCanonical(buf, x[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
	case []any:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := writeCanonical(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
	case json.Number:
		buf.WriteString(string(x))
	default: // string, bool, nil
		b, err := json.Marshal(x)
		if err != nil {
			return err
		}
		buf.Write(b)
	}
	return nil
}

// Hash returns the scenario's canonical fingerprint: the hex SHA-256 of
// CanonicalJSON. It is the content address of the experiment — name,
// network, model, traffic, protocol, simulation parameters (seed
// included) and sweep all contribute — and the cache key dynschedd
// serves identical submissions from. Hash panics only if the spec
// cannot be marshaled, which cannot happen for Scenario's field types
// once Validate has accepted the spec (NaN and ±Inf rates are
// rejected there).
func (s Scenario) Hash() string {
	doc, err := s.CanonicalJSON()
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}
