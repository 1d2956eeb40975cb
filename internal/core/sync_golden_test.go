package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"riseandshine/internal/core"
	"riseandshine/internal/experiment"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// syncGolden is one pinned synchronous run: the combined transcript
// digest, the headline counters, and the SHA-256 of the full CSV trace.
type syncGolden struct {
	digest                         uint64
	messages, bits, rounds, events int
	span, wakeSpan                 sim.Time
	traceSHA                       string
}

// TestSyncGolden pins the synchronous engine's observable output for the
// paper's synchronous algorithm (FastWakeUp, Theorem 4) and the push-gossip
// comparator on a sparse grid and a dense random graph, under a full wake,
// a random 4-node wake and a staggered schedule with integer gaps. Every
// value must stay byte-for-byte stable across engine rewrites: a change
// here is a behavior change, not a refactor. The grid random:4 and
// staggered cells and the push-gossip all-wake cell on connected:512:0.2
// are the values `wakeup -graph G -alg A -awake S -digest` prints at seed 1
// with random ports (the CLI default).
func TestSyncGolden(t *testing.T) {
	const seed = 1
	graphs := []string{"grid:32x32", "connected:512:0.2"}
	schedules := []struct {
		name  string
		sched sim.WakeScheduler
	}{
		{"all", sim.WakeAll{}},
		{"random:4", sim.RandomWake{Count: 4, Seed: seed}},
		{"staggered:1,2,4:3", sim.StaggeredWake{Sizes: []int{1, 2, 4}, Gap: 3, Seed: seed}},
	}
	algs := []struct {
		alg   sim.SyncAlgorithm
		model sim.Model
	}{
		{core.FastWakeUp{}, sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}},
		{core.PushGossip{}, sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Congest}},
	}
	want := map[string]syncGolden{
		"grid:32x32 fast-wakeup all":                      {digest: 0x44a4a3f994baf432, messages: 5462, bits: 196693, rounds: 10, events: 11, span: 10, wakeSpan: 0, traceSHA: "e5cb26c4f66768c2e257ed2142c23b9d916579fafcb077817fe1b74f70bd9cff"},
		"grid:32x32 fast-wakeup random:4":                 {digest: 0x78538ea479892083, messages: 5244, bits: 139072, rounds: 252, events: 253, span: 252, wakeSpan: 242, traceSHA: "0abc17754f70612fbf880c7793a40c5a85f92d10ca3288dba27d12e33543d19a"},
		"grid:32x32 fast-wakeup staggered:1,2,4:3":        {digest: 0x1ee4f865ae5def9, messages: 5253, bits: 140164, rounds: 142, events: 143, span: 142, wakeSpan: 133, traceSHA: "a66fe962e502037d3674f79d2fc8f548cd55f0e9f356ffc315e399732593ab5c"},
		"grid:32x32 push-gossip all":                      {digest: 0x306655bb89d3ed10, messages: 40960, bits: 163840, rounds: 40, events: 41, span: 40, wakeSpan: 0, traceSHA: "483dd5ad78cdb6ec3a0e151c44fa1bc4409c95a744d28314aa16859a44425259"},
		"grid:32x32 push-gossip random:4":                 {digest: 0xafeb8db96c1394d6, messages: 40960, bits: 163840, rounds: 112, events: 113, span: 112, wakeSpan: 72, traceSHA: "b323ba4b24f9ebf2ed5dd906da03390af37c508f6c3614f8a217bf874d7482fa"},
		"grid:32x32 push-gossip staggered:1,2,4:3":        {digest: 0xa7710cdea53ce688, messages: 40960, bits: 163840, rounds: 80, events: 81, span: 80, wakeSpan: 40, traceSHA: "a3627476405875fe89e93684b06cc520020ebdc58e99df139dcd9cbb92daf0d5"},
		"connected:512:0.2 fast-wakeup all":               {digest: 0xd3e22c8256d37853, messages: 50182, bits: 46085188, rounds: 6, events: 10, span: 6, wakeSpan: 0, traceSHA: "af3295a60379350f33d912933763de8264b21be8aa913a23634cc228b5d8da49"},
		"connected:512:0.2 fast-wakeup random:4":          {digest: 0x72cbf8a608d1bcb7, messages: 27127, bits: 24521248, rounds: 16, events: 20, span: 16, wakeSpan: 14, traceSHA: "0b163f0179fc6f440eb893f774e18d364b5ae54bb04c13f048f75a2970231b1b"},
		"connected:512:0.2 fast-wakeup staggered:1,2,4:3": {digest: 0x18c93c3fa1546f5, messages: 12490, bits: 10806360, rounds: 19, events: 20, span: 19, wakeSpan: 14, traceSHA: "fc3cb8f63248e6f8dce627b967d37e24c47afeef8c4a02674e75943cea5d959c"},
		"connected:512:0.2 push-gossip all":               {digest: 0x5a1094742c00ba24, messages: 18432, bits: 73728, rounds: 36, events: 37, span: 36, wakeSpan: 0, traceSHA: "39bbe7d147559cd1566ef4046e00942a791c5ddd32c8b8b8522d4f77859dbac2"},
		"connected:512:0.2 push-gossip random:4":          {digest: 0x79366ddd223d2bf4, messages: 18432, bits: 73728, rounds: 51, events: 52, span: 51, wakeSpan: 15, traceSHA: "27d80e9ab7960e328d8bdc08fe146b8dc9545e1f91b8a8bda63f001d0fe965ee"},
		"connected:512:0.2 push-gossip staggered:1,2,4:3": {digest: 0xb9c9b591b6633dbd, messages: 18432, bits: 73728, rounds: 52, events: 53, span: 52, wakeSpan: 16, traceSHA: "feb3682ec30a9d7e6f538388a3bb051efa4ee02f21285cab78a674d80b37152a"},
	}

	for _, spec := range graphs {
		g, err := experiment.ParseGraph(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		ports := graph.RandomPorts(g, rand.New(rand.NewSource(seed)))
		for _, a := range algs {
			for _, s := range schedules {
				key := spec + " " + a.alg.Name() + " " + s.name
				trace := sha256.New()
				digests := sim.NewDigestObserver(false)
				res, err := sim.RunSync(sim.SyncConfig{
					Graph:    g,
					Ports:    ports,
					Model:    a.model,
					Schedule: s.sched,
					Seed:     seed,
					Observer: sim.StackObservers(sim.NewTraceObserver(trace), digests),
				}, a.alg)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got := syncGolden{
					digest:   sim.CombineDigests(res.TranscriptDigests),
					messages: res.Messages,
					bits:     int(res.MessageBits),
					rounds:   res.Rounds,
					events:   res.Events,
					span:     res.Span,
					wakeSpan: res.WakeSpan,
					traceSHA: hex.EncodeToString(trace.Sum(nil)),
				}
				if w, ok := want[key]; !ok || got != w {
					t.Errorf("%s:\n got  %#v\n want %#v", key, got, w)
				}
			}
		}
	}
}
