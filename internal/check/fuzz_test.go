package check

import (
	"testing"

	"millibalance/internal/httpcluster"
)

// DecodeBytes derives a script directly from a byte stream — the
// go test -fuzz entry point. The mapping is total (any bytes decode to
// some valid script) so the fuzzer never wastes executions on parse
// rejections: byte 0 picks the arm, bytes 1–4 the topology and starting
// point, and each subsequent 3-byte group decodes one op.
func DecodeBytes(data []byte) Script {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	arms := []Arm{ArmSticky, ArmInstant, ArmOverflow}
	s := Script{
		Arm:       arms[int(at(0))%len(arms)],
		Backends:  1 + int(at(1))%4,
		Endpoints: 1 + int(at(2))%3,
		Policy:    scriptPolicies[int(at(3))%len(scriptPolicies)],
		Mech:      httpcluster.Mechanism(1 + int(at(4))%2),
	}
	const maxOps = 256
	for i := 5; i+2 < len(data) && len(s.Ops) < maxOps; i += 3 {
		k, a, b := data[i], int64(data[i+1]), int64(data[i+2])
		switch k % 7 {
		case 0:
			s.Ops = append(s.Ops, Op{Kind: OpAcquire, A: a*256 + b})
		case 1:
			s.Ops = append(s.Ops, Op{Kind: OpDone, A: a, B: b * 16})
		case 2:
			s.Ops = append(s.Ops, Op{Kind: OpFail, A: a})
		case 3:
			s.Ops = append(s.Ops, Op{Kind: OpSetPolicy, Policy: scriptPolicies[int(a)%len(scriptPolicies)]})
		case 4:
			s.Ops = append(s.Ops, Op{Kind: OpSetMechanism, Mech: httpcluster.Mechanism(1 + int(a)%2)})
		case 5:
			s.Ops = append(s.Ops, Op{Kind: OpQuarantine, A: a, On: b%2 == 0})
		case 6:
			s.Ops = append(s.Ops, Op{Kind: OpWeight, A: a, F: genWeights[int(b)%len(genWeights)]})
		}
	}
	return s
}

// FuzzDifferentialScript is the whole-balancer fuzz target: arbitrary
// bytes become a deterministic op script, the script replays through the
// Balancer, and any invariant violation fails. A crash artifact's bytes
// reproduce the violation exactly; re-encode the shrunk script with
// Marshal to promote it into testdata/.
func FuzzDifferentialScript(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 2, 0, 0})          // sticky, acquire + fail
	f.Add([]byte{2, 0, 0, 2, 0, 0, 9, 9, 2, 3, 0})          // overflow arm, acquire + fail
	f.Add([]byte{1, 3, 1, 3, 1, 6, 0, 9, 0, 1, 1, 5, 2, 0}) // instant, weight + quarantine mix
	for seed := uint64(0); seed < 8; seed++ {
		f.Add([]byte(Generate(seed).Marshal())) // structured seeds too: text bytes still decode
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := DecodeBytes(data)
		if fail := Run(s, nil); fail != nil {
			min := Shrink(s, func(c Script) bool { return Run(c, nil) != nil })
			t.Fatalf("invariant violated: %v\nminimized script:\n%s", fail, min.Marshal())
		}
	})
}

// FuzzUnmarshal hardens the corpus text format: arbitrary text either
// fails to parse or round-trips stably through Marshal ∘ Unmarshal.
func FuzzUnmarshal(f *testing.F) {
	f.Add("# millicheck script v1\narm overflow\nbackends 1\nendpoints 1\npolicy current_load\nmech modified\nacquire 460\nfail 10\n")
	f.Add("arm instant\nweight 4 +Inf\n")
	f.Add("policy prequal\n")
	f.Add("quarantine -1 on\n")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Unmarshal(text)
		if err != nil {
			return
		}
		again, err := Unmarshal(s.Marshal())
		if err != nil {
			t.Fatalf("re-parse of marshalled script failed: %v", err)
		}
		if again.Marshal() != s.Marshal() {
			t.Fatalf("round trip unstable:\n%s\nvs\n%s", s.Marshal(), again.Marshal())
		}
	})
}
