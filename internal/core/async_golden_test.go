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

// asyncGolden is one pinned asynchronous run: the combined transcript
// digest, the headline counters, and the SHA-256 of the full CSV trace.
type asyncGolden struct {
	digest         uint64
	messages, bits int
	span, wakeSpan sim.Time
	traceSHA       string
}

// TestAsyncGolden pins the asynchronous engine's observable output for the
// paper's asynchronous KT1 LOCAL algorithm (ranked DFS, Theorem 3) and the
// leader election built on it, on a sparse and a denser random graph,
// under a staggered and a random 5-node wake with random delays. Both
// algorithms carry their visited set on the token; the digest and the CSV
// trace hash each token's Go-syntax form, so a change to what the token
// prints moves them. Every value must stay byte-for-byte stable across
// rewrites of the machines' state. The connected:1024:0.01 dfs-rank
// staggered cell is the value `wakeup -graph connected:1024:0.01 -alg
// dfs-rank -awake staggered:1,2,4,8:64 -delays random -digest` prints at
// seed 1 with random ports (the CLI default).
func TestAsyncGolden(t *testing.T) {
	const seed = 1
	graphs := []string{"connected:1024:0.01", "gnp:300:0.05"}
	schedules := []struct {
		name  string
		sched sim.WakeScheduler
	}{
		{"staggered:1,2,4,8:64", sim.StaggeredWake{Sizes: []int{1, 2, 4, 8}, Gap: 64, Seed: seed}},
		{"random:5", sim.RandomWake{Count: 5, Seed: seed}},
	}
	algs := []sim.Algorithm{core.DFSRank{}, core.LeaderElect{}}
	model := sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}
	want := map[string]asyncGolden{
		"connected:1024:0.01 dfs-rank staggered:1,2,4,8:64":     {digest: 0x1a75a2016b20b5bf, messages: 2435, bits: 29238921, span: 1137.1849042363249, wakeSpan: 854.2593225701173, traceSHA: "62120b7a05bd97ec1b01245c60b8cc3743aa6fc7dfe9e310c88ca82ef298351f"},
		"connected:1024:0.01 dfs-rank random:5":                 {digest: 0x6025ae91c140bf9c, messages: 2102, bits: 28453713, span: 1015.5848274731828, wakeSpan: 802.6339627524544, traceSHA: "b2c80b0103b064e0c79691f13dd8ae17085788a67fe3cf20ff5c133919d961b5"},
		"connected:1024:0.01 leader-elect staggered:1,2,4,8:64": {digest: 0x7d8deb18fafb3317, messages: 3458, bits: 69811992, span: 1598.1903215924015, wakeSpan: 854.2593225701173, traceSHA: "414ea5643f12ba5646d612ff80ac2905b9fd8f9611110e3ba44ca1ce0cce1fd2"},
		"connected:1024:0.01 leader-elect random:5":             {digest: 0x21533c69919c5c23, messages: 3125, bits: 68640805, span: 1469.9358188083208, wakeSpan: 802.6339627524544, traceSHA: "43d1760e7183d44085d547e8961794dea2b1bd2447ebe75391e0630dcc7bfb64"},
		"gnp:300:0.05 dfs-rank staggered:1,2,4,8:64":            {digest: 0x8f744b327386aa61, messages: 599, bits: 2261832, span: 298.11853893747895, wakeSpan: 182.38744547600857, traceSHA: "5a76aaee23008c79c2d99f09c5be2a59a04feee2ba017e03655a47d00c6c122f"},
		"gnp:300:0.05 dfs-rank random:5":                        {digest: 0x2179720f4594ab87, messages: 629, bits: 2268422, span: 294.47205029527095, wakeSpan: 210.01856260804735, traceSHA: "542497491d1fc709655000d6b82df0b9a108886690367f034b18e359d68dcfc8"},
		"gnp:300:0.05 leader-elect staggered:1,2,4,8:64":        {digest: 0xc6a4448b965f6ed6, messages: 898, bits: 5399388, span: 436.033590095955, wakeSpan: 182.38744547600857, traceSHA: "8462b108e2a194b28a57cfc4abc5de665d89610dac3f012ff1bb453ac1e71eeb"},
		"gnp:300:0.05 leader-elect random:5":                    {digest: 0x1f8019b1090e8b0e, messages: 928, bits: 5408188, span: 436.2729100542219, wakeSpan: 210.01856260804735, traceSHA: "13930476843adfff7ee9db0d3556e4bab8c87e548e95f13cde83b64a5987881d"},
	}

	for _, spec := range graphs {
		g, err := experiment.ParseGraph(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		ports := graph.RandomPorts(g, rand.New(rand.NewSource(seed)))
		for _, alg := range algs {
			for _, s := range schedules {
				key := spec + " " + alg.Name() + " " + s.name
				trace := sha256.New()
				res, err := sim.RunAsync(sim.Config{
					Graph:         g,
					Ports:         ports,
					Model:         model,
					Adversary:     sim.Adversary{Schedule: s.sched, Delays: sim.RandomDelay{Seed: seed}},
					Seed:          seed,
					RecordDigests: true,
					Trace:         trace,
				}, alg)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got := asyncGolden{
					digest:   sim.CombineDigests(res.TranscriptDigests),
					messages: res.Messages,
					bits:     int(res.MessageBits),
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
