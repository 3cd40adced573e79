package dynsched

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"dynsched/internal/interference"
	"dynsched/internal/static"
)

// This file pins the random stream and every result byte of the
// per-slot hot paths (injection sampling, the Spread executor) as
// SHA-256 digests. An optimisation of those paths must leave every
// digest as it is; a change that moves one is a change of results, not
// of speed.

// scenarioDigests is the SHA-256 of json.Marshal(*SimResult) for every
// registered scenario under 10⁵ links, at two simulation seeds.
var scenarioDigests = map[string]string{
	"grid-convergecast/seed=1":       "af957d507b2d9840e88ee78058a892bd52747704d91e5d5feaf21ab151710352",
	"grid-convergecast/seed=7":       "46ae2e3ebfa47234fc01e6df0f131f2d8ea4d64e70139cd594cbadaf154454fd",
	"line-stochastic/seed=1":         "c778df414e184e3eafdcff60b406b5b9fe77fd5f575b92fddcfbd5904cef41f9",
	"line-stochastic/seed=7":         "6dfdf5651cbe96b24abe9c883de32ca98419682653422f32bdc2bad39d693e92",
	"lossy-line/seed=1":              "50ac5262a5d45c7dc92391ca93307f0b9b812be2da73edd9d8b3ff330cccfcd1",
	"lossy-line/seed=7":              "70d4c80ce5531d2ff5d110de3b99c7de18160e55ca1f2f6c8ddc2ecf2753c917",
	"mac-adversarial/seed=1":         "aad81f05bdb71f0c1e600c9cc874835b110f605ed92fa934a3bc84821564866c",
	"mac-adversarial/seed=7":         "e6799b850008c1b991e86900f8f9f9b924bcbad177c750fe6af8f167afd8ad83",
	"powercontrol-stochastic/seed=1": "f6a8ce25751ef20c50b4d298d7acc8ab13e4d126bf7918978b5c1bc0671a86d6",
	"powercontrol-stochastic/seed=7": "3ad825dec0a3e7a31457a4343072a5f92f86c069a0d87d73893ff40e2d762102",
	"sinr-grid-4k/seed=1":            "be3e42ddf5b3fef331fbf602fca901a12a418a198d45d195a34262e1982e29a3",
	"sinr-grid-4k/seed=7":            "5c0f29af986f608bba49f0311bcfd08c79ea6f7079321631dc301f03f1ca7ac9",
	"sinr-stochastic/seed=1":         "ed5d3166d32b69c0e44bbc8d83fd513424aff74e1b82f2414d7d3f70ff66670e",
	"sinr-stochastic/seed=7":         "fc055d44ab0c4c79bf44d68619af0b1d2a4a7bf0105e4de2ec6a9992f772ea72",
	"trace-replay/seed=1":            "3ddeda819465c2c1d6dc55ace6d0cd05109730b16cdc9153ab4660b8f5a3464d",
	"trace-replay/seed=7":            "3ddeda819465c2c1d6dc55ace6d0cd05109730b16cdc9153ab4660b8f5a3464d",
}

// grid4kDigestSlots caps sinr-grid-4k past its second frame start
// (frame length T = 2816) and past that frame's 2124-slot main phase
// (slot 4940), so the recycled main and clean-up executions both run.
const grid4kDigestSlots = 5_000

func TestScenarioResultDigests(t *testing.T) {
	for _, s := range Scenarios() {
		if s.Network.Links >= 100_000 {
			continue
		}
		if s.Name == "sinr-grid-4k" {
			s.Sim.Slots = grid4kDigestSlots
		}
		for _, seed := range []int64{1, 7} {
			s, key := s, fmt.Sprintf("%s/seed=%d", s.Name, seed)
			s.Sim.Seed = seed
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				res, err := s.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				doc, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(doc)
				if got := hex.EncodeToString(sum[:]); got != scenarioDigests[key] {
					t.Errorf("%q: %q, want %q", key, got, scenarioDigests[key])
				}
			})
		}
	}
}

// spreadDigests pins static.Run of a crowded Spread instance, one
// digest per seed: 400 requests over 8 identity links at half a slot
// per unit of measure, so most slots have more than two requests due
// on a link, some of them reordered by an earlier swap-remove.
var spreadDigests = [20]string{
	"933857d7079a143abfa93de1a2c74fc3d9f5397a14c6af9e0a13b9fb0c8cc806", // seed 1
	"9a3c3d814a22f8fcb7f7e9eb357da52eb685658d3ee33489edb6735f89801cff", // seed 2
	"68da965f362973e24948b7e14573c8f96fe7dd6412f334f57d63e6117959d772", // seed 3
	"96254a2f93f8763b85533e8855cf4c64e806a02f37f387e608410d59126fdd49", // seed 4
	"bc4716f41f5dbbebbfbca303fbd9f2d4d1c477541b8fb28386dd0aa62c34b1e4", // seed 5
	"697043ae9f9ae32aa37110f10dd31583286e433e20e2a9ef660ed49e441cacd1", // seed 6
	"e50779c0f03c1a977499833587690098d1cbe0c12923dbefdcb94e7f30ebf6c2", // seed 7
	"b4657c748d8be9f3e2fc6c3f9d0790cf7ea868927df7fdd9fb8b9e0d501a6d8b", // seed 8
	"4efd08839a4425c035f9b28f20d555c051ea424a3a722c854c99893e84ae4659", // seed 9
	"f99c99a5592465cfd0dd5e5f4a4319e4030516b1a840c5827f0a3237648f1dd2", // seed 10
	"04644fcc80bc0b0f033a21e69ad54fe5036e32c294ac68f2273dcaa49266926a", // seed 11
	"f6fe677373bdd7c74ae7f9fe71b4de5c907ea3b0d2179231b399cfa36a0a01c9", // seed 12
	"da5a2076fb1c5525ca6a855f9aef5bbbff2f863eea236625aa0ed3e6a4176fcb", // seed 13
	"7ef059f83cf7822459c5ce154025d38f012cc98e8cc93eb2068a1cfbf34411ef", // seed 14
	"5b5cf17e3bbf18af6e7c6bba511c58a6ebff70a25750ba494d0e7c0f4aa15157", // seed 15
	"e22f202e02be50a86baae21b9db1a79c300c93b480e208d374a181b5ea757323", // seed 16
	"906a3dfe6dad587a66ab481ece595cfaab9686a1fab4d8db1f334ae3dbd16a6e", // seed 17
	"5904d09fb00c51f7834842501b5a8b4128f92a8c390c04339ddf2cfe2ee952cd", // seed 18
	"290cd83554bc894762869ed86f3aed24581a5686753e8500a585c9eea9b3d1e7", // seed 19
	"783323af060af8a44201360abc379a15ee786f12de3108270485e77134b63a78", // seed 20
}

// attemptRecorder wraps an algorithm so that every index its
// executions emit is hashed. Under a link-capacity model, which two of
// several requests due on one link transmit changes no outcome, so a
// digest of the Result alone would not see the emission order.
type attemptRecorder struct {
	static.Algorithm
	h hash.Hash
}

func (a attemptRecorder) NewExecution(m interference.Model, reqs []static.Request) static.Execution {
	return recordedExec{a.Algorithm.NewExecution(m, reqs), a.h}
}

type recordedExec struct {
	static.Execution
	h hash.Hash
}

func (e recordedExec) Attempts(rng *rand.Rand) []int {
	out := e.Execution.Attempts(rng)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(out)))
	e.h.Write(buf[:])
	for _, idx := range out {
		binary.LittleEndian.PutUint64(buf[:], uint64(idx))
		e.h.Write(buf[:])
	}
	return out
}

func TestSpreadCrowdedDigests(t *testing.T) {
	const links, perLink = 8, 50
	m := interference.Identity{Links: links}
	reqs := make([]static.Request, 0, links*perLink)
	for k := 0; k < perLink; k++ {
		for e := 0; e < links; e++ {
			reqs = append(reqs, static.Request{Link: e, Tag: int64(len(reqs))})
		}
	}
	for seed := range spreadDigests {
		h := sha256.New()
		alg := attemptRecorder{static.Spread{SlotsPerUnit: 0.5}, h}
		res := static.Run(rand.New(rand.NewSource(int64(seed)+1)), m, alg, reqs, 0)
		doc, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(doc)
		if got := hex.EncodeToString(h.Sum(nil)); got != spreadDigests[seed] {
			t.Errorf("seed %d: %q, want %q", seed+1, got, spreadDigests[seed])
		}
	}
}
