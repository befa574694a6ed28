package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"millibalance/internal/adapt"
	"millibalance/internal/admission"
	"millibalance/internal/lb"
	"millibalance/internal/netmodel"
	"millibalance/internal/probe"
	"millibalance/internal/telemetry"
)

// The golden digests below were recorded before the request path was
// rewritten from nested continuation closures to recycled flight
// records; they pin what a run computes — not how — so any change that
// reorders, adds or drops an engine event, draws the random source in a
// different order, or reads a recycled record after its request
// finished shows up here as a changed line. A value may only be edited
// by a change that means to alter the model's output.

// fingerprint renders everything the benchmark's model.digest hashes
// (issued, completed, failures, VLRT count, mean, p99, events fired and
// per-server served counts) plus the transport and balancer counters
// that tell which branches of the walk a run took; an armed admission
// gate adds admitted / queue-full / max-wait / CoDel drops and its
// final limit.
func fingerprint(c *Cluster, res *Results) string {
	r := res.Responses
	var b strings.Builder
	fmt.Fprintf(&b, "issued=%d completed=%d failures=%d vlrt=%d mean=%d p99=%d fired=%d",
		res.Issued, r.Total(), r.Failures(), r.VLRTCount(), r.Mean(), r.Quantile(0.99), c.Eng.Fired())
	fmt.Fprintf(&b, " drops=%d retransmits=%d giveups=%d rejects=%d sheds=%d served",
		res.Drops, res.Retransmits, res.GiveUps, res.Rejects, res.AdmissionSheds)
	for _, tier := range [][]*ServerStats{res.Webs, res.Apps, {res.DB}} {
		for _, s := range tier {
			fmt.Fprintf(&b, " %s=%d", s.Name, s.Served)
		}
	}
	for _, g := range res.Admission {
		fmt.Fprintf(&b, " gate=%d/%d/%d/%d/%d", g.Admitted, g.DropsQueueFull, g.DropsMaxWait, g.DropsCoDel, g.Limit)
	}
	return b.String()
}

// goldenPaper is the benchmark's sim_paper workload at its -short
// length: the paper's unstable configuration, every plane off.
func goldenPaper(seed uint64) Config {
	cfg := PaperConfig()
	cfg.Seed1 = seed
	cfg.Duration = 7 * time.Second
	return cfg
}

// goldenFull is the benchmark's sim_full plane set on the same
// topology: prequal + modified_get_endpoint with probing, admission,
// the adapt ladder, 50 ms telemetry, events and spans armed.
func goldenFull(seed uint64) Config {
	cfg := goldenPaper(seed)
	cfg.Policy = "prequal"
	cfg.Mechanism = "modified_get_endpoint"
	cfg.Probe = &probe.Config{}
	cfg.Admission = &admission.Config{
		Limiter: admission.LimiterAIMD, CoDel: true, LIFO: true,
		MaxWait: 400 * time.Millisecond,
	}
	cfg.Adaptive = &adapt.Config{}
	cfg.Telemetry = &telemetry.Config{Interval: 50 * time.Millisecond}
	cfg.EventCapacity = 65536
	cfg.SpanCapacity = 4096
	return cfg
}

// goldenStress drives every branch of the walk in one short run: the
// mini topology under three times its usual load with a slow disk, so
// each flush freezes an app server long enough to fill the web tier's
// accept queues (drops, retransmits, exhausted schedules), to keep the
// original get_endpoint polling until it times out, and to send
// dispatches through pause-and-resweep into rejection. Sticky
// sessions, web-side log writeback, spans and the access log ride
// along so their bookkeeping is under the pin too.
func goldenStress() Config {
	cfg := MiniConfig()
	cfg.Seed1 = 11
	cfg.Duration = 8 * time.Second
	cfg.Clients = 9000
	cfg.WebBacklog = 16
	cfg.ConnPoolSize = 4
	cfg.WebLogBytes = 400
	cfg.AppWriteback.Disk.WriteRate = 900 << 10
	cfg.AppWriteback.MaxStall = 900 * time.Millisecond
	cfg.Retransmit = netmodel.RetransmitSchedule{300 * time.Millisecond, 300 * time.Millisecond}
	cfg.LB = lb.Config{Sweeps: 2, SweepPause: 50 * time.Millisecond, StickySessions: true}
	cfg.SpanCapacity = 512
	cfg.TraceCapacity = 1 << 16
	return cfg
}

// goldenShed is goldenStress seen through the overload gate: the
// gradient limiter shrinks under the stalls and the wait queue is
// short, so requests wait in the admission queue, are handed a slot by
// it, are shed from it by MaxWait and CoDel, and are shed at the door.
func goldenShed() Config {
	cfg := goldenStress()
	cfg.Admission = &admission.Config{
		Limiter: admission.LimiterGradient, CoDel: true, LIFO: true,
		MaxWait: 150 * time.Millisecond, MaxQueue: 8,
	}
	cfg.EventCapacity = 1 << 14
	return cfg
}

// goldenOpenGate arms the gate without a concurrency cap, which leaves
// the one branch goldenShed cannot reach: a request the gate admits
// and the full accept backlog then drops, so its slot is cancelled and
// the client retransmits.
func goldenOpenGate() Config {
	cfg := goldenStress()
	cfg.Admission = &admission.Config{Limiter: admission.LimiterNone}
	return cfg
}

func TestGoldenDigests(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"paper/seed1", goldenPaper(1), "issued=104088 completed=99730 failures=0 vlrt=2581 mean=41378284 p99=1003520000 fired=1232143 drops=6826 retransmits=6826 giveups=0 rejects=0 sheds=0 served apache1=24829 apache2=24996 apache3=24976 apache4=24929 tomcat1=24984 tomcat2=24984 tomcat3=24781 tomcat4=24982 mysql1=206516"},
		{"paper/seed2", goldenPaper(2), "issued=104271 completed=99991 failures=0 vlrt=2801 mean=43806591 p99=1003520000 fired=1236213 drops=7038 retransmits=7038 giveups=0 rejects=0 sheds=0 served apache1=24999 apache2=24873 apache3=25114 apache4=25005 tomcat1=25035 tomcat2=24896 tomcat3=25032 tomcat4=25032 mysql1=207312"},
		{"paper/seed3", goldenPaper(3), "issued=103977 completed=93746 failures=0 vlrt=2575 mean=44387884 p99=1003520000 fired=1167748 drops=11175 retransmits=11175 giveups=0 rejects=0 sheds=0 served apache1=23358 apache2=23356 apache3=23456 apache4=23576 tomcat1=23840 tomcat2=22349 tomcat3=23781 tomcat4=23778 mysql1=194352"},
		{"full/seed1", goldenFull(1), "issued=104768 completed=104722 failures=0 vlrt=0 mean=2397711 p99=3408000 fired=1284580 drops=0 retransmits=0 giveups=0 rejects=0 sheds=0 served apache1=26055 apache2=26233 apache3=26166 apache4=26268 tomcat1=28721 tomcat2=25880 tomcat3=26315 tomcat4=23809 mysql1=216932 gate=26067/0/0/0/189 gate=26243/0/0/0/189 gate=26186/0/0/0/189 gate=26272/0/0/0/190"},
		{"full/seed2", goldenFull(2), "issued=104945 completed=104896 failures=0 vlrt=0 mean=2371208 p99=3408000 fired=1287344 drops=0 retransmits=0 giveups=0 rejects=0 sheds=0 served apache1=26225 apache2=26185 apache3=26283 apache4=26203 tomcat1=28942 tomcat2=26078 tomcat3=26185 tomcat4=23693 mysql1=217502 gate=26238/0/0/0/189 gate=26196/0/0/0/189 gate=26298/0/0/0/189 gate=26213/0/0/0/189"},
		{"full/seed3", goldenFull(3), "issued=105063 completed=105026 failures=0 vlrt=0 mean=2383900 p99=3440000 fired=1288847 drops=0 retransmits=0 giveups=0 rejects=0 sheds=0 served apache1=26154 apache2=26274 apache3=26301 apache4=26297 tomcat1=29012 tomcat2=26017 tomcat3=26287 tomcat4=23712 mysql1=217749 gate=26164/0/0/0/189 gate=26286/0/0/0/189 gate=26307/0/0/0/190 gate=26306/0/0/0/189"},
		{"stress", goldenStress(), "issued=26162 completed=25184 failures=6281 vlrt=104 mean=288087520 p99=929792000 fired=271509 drops=27074 retransmits=20795 giveups=6279 rejects=2 sheds=0 served apache1=9375 apache2=9528 tomcat1=9390 tomcat2=9514 mysql1=39357"},
		{"shed", goldenShed(), "issued=28442 completed=28423 failures=14773 vlrt=1 mean=9328722 p99=301056000 fired=201824 drops=0 retransmits=0 giveups=0 rejects=0 sheds=14773 served apache1=6786 apache2=6864 tomcat1=6826 tomcat2=6824 mysql1=28405 gate=6794/7319/176/0/11 gate=6875/7093/185/0/11"},
		{"open-gate", goldenOpenGate(), "issued=26162 completed=25184 failures=6281 vlrt=104 mean=288087520 p99=929792000 fired=271509 drops=27074 retransmits=20795 giveups=6279 rejects=2 sheds=0 served apache1=9375 apache2=9528 tomcat1=9390 tomcat2=9514 mysql1=39357 gate=23420/0/0/0/0 gate=22763/0/0/0/0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.cfg)
			got := fingerprint(c, c.Run())
			if got != tc.want {
				t.Errorf("run fingerprint changed\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}

// TestGoldenStressTakesEveryBranch keeps the stress runs honest: if a
// later retuning of the model stops them from dropping, retransmitting,
// giving up, rejecting, queueing or shedding, the pin above would silently stop
// covering those branches.
func TestGoldenStressTakesEveryBranch(t *testing.T) {
	res := Run(goldenStress())
	if res.Drops == 0 || res.Retransmits == 0 || res.GiveUps == 0 || res.Rejects == 0 {
		t.Errorf("stress run: drops=%d retransmits=%d giveups=%d rejects=%d, want all > 0",
			res.Drops, res.Retransmits, res.GiveUps, res.Rejects)
	}
	shed := Run(goldenShed())
	var atDoor, fromQueue uint64
	for _, g := range shed.Admission {
		atDoor += g.DropsQueueFull
		fromQueue += g.DropsMaxWait + g.DropsCoDel
	}
	if atDoor == 0 || fromQueue == 0 {
		t.Errorf("shed run: shed at the door=%d, shed from the queue=%d, want both > 0", atDoor, fromQueue)
	}
	if open := Run(goldenOpenGate()); open.Drops == 0 || len(open.Admission) == 0 {
		t.Errorf("open-gate run: drops=%d behind %d gates, want drops behind an armed gate", open.Drops, len(open.Admission))
	}
}
