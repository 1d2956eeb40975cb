package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"riseandshine/internal/graph"
)

func memConfig(report bool) Config {
	return Config{
		Graph:     graph.BinaryTree(127),
		Model:     Model{Knowledge: KT0, Bandwidth: Local},
		Adversary: Adversary{Schedule: WakeSet{Nodes: []int{0}}, Delays: RandomDelay{Seed: 2}},
		Seed:      1,
		MemReport: report,
	}
}

// TestMemReportPopulated checks the report's basic accounting contract:
// every subsystem that the run touches reports a positive figure and the
// total is the sum.
func TestMemReportPopulated(t *testing.T) {
	res, err := RunAsync(memConfig(true), floodAlg{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Mem
	if m == nil {
		t.Fatal("MemReport requested but Result.Mem is nil")
	}
	if m.QueueBytes <= 0 || m.PayloadBytes <= 0 || m.FIFOBytes <= 0 || m.RNGBytes <= 0 || m.CSRBytes <= 0 || m.NodeBytes <= 0 {
		t.Errorf("subsystem bytes not all positive: %+v", m)
	}
	if sum := m.QueueBytes + m.PayloadBytes + m.FIFOBytes + m.RNGBytes + m.CSRBytes + m.NodeBytes; m.TotalBytes != sum {
		t.Errorf("TotalBytes %d != subsystem sum %d", m.TotalBytes, sum)
	}
	if s := m.String(); !strings.HasPrefix(s, "mem: total="+FormatBytes(m.TotalBytes)) {
		t.Errorf("String() = %q, want the total first", s)
	}
}

// TestMemReportOffByDefault pins that the report stays nil unless asked
// for, and that the JSON encoding omits it — Results from mem-reporting
// and plain runs must stay byte-comparable on every other field.
func TestMemReportOffByDefault(t *testing.T) {
	res, err := RunAsync(memConfig(false), floodAlg{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem != nil {
		t.Fatalf("MemReport not requested but Result.Mem = %+v", res.Mem)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "Mem") {
		t.Fatalf("JSON encoding of a plain Result mentions Mem: %s", b)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{2048, "2.0KiB"},
		{5 << 20, "5.00MiB"},
		{3 << 30, "3.00GiB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}
