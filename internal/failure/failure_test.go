package failure

import (
	"testing"

	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

func testNet(t *testing.T) *net.Network {
	t.Helper()
	eng := sim.NewEngine()
	nw, err := net.NewLeafSpine(eng, sim.NewRNG(1), net.Config{
		Leaves: 4, Spines: 4, HostsPerLeaf: 4,
		HostRateBps: 10e9, FabricRateBps: 10e9, HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestRandomDropRate(t *testing.T) {
	nw := testNet(t)
	rd := &RandomDrop{Spine: nw.Spines[0], Rate: 0.1, Rng: sim.NewRNG(2)}
	rd.Install()
	drops := 0
	const n = 50_000
	for i := 0; i < n; i++ {
		if nw.Spines[0].ConsultDropFns(&net.Packet{}) {
			drops++
		}
	}
	frac := float64(drops) / n
	if frac < 0.08 || frac > 0.12 {
		t.Fatalf("drop fraction = %.3f, want ~0.10", frac)
	}
	if rd.Dropped != uint64(drops) || rd.Seen != n {
		t.Fatal("counters inconsistent")
	}
}

func TestBlackholePredicate(t *testing.T) {
	nw := testNet(t)
	match := RackPairBlackhole(nw, 0, 3)
	// Hosts 0..3 are rack 0, hosts 12..15 are rack 3.
	affected, clean := 0, 0
	for s := 0; s < 4; s++ {
		for d := 12; d < 16; d++ {
			if match(s, d) {
				affected++
				// The reverse direction (ACK path) must match too.
				if !match(d, s) {
					t.Fatalf("reverse of affected pair (%d,%d) not matched", s, d)
				}
			} else {
				clean++
			}
		}
	}
	if affected != 8 || clean != 8 {
		t.Fatalf("affected=%d clean=%d, want half of 16 pairs", affected, clean)
	}
	// Unrelated rack pairs must never match.
	if match(0, 5) || match(4, 12) || match(12, 4) {
		t.Fatal("predicate matched traffic outside the rack pair")
	}
}

func TestBlackholeInstall(t *testing.T) {
	nw := testNet(t)
	b := &Blackhole{Spine: nw.Spines[1], Match: RackPairBlackhole(nw, 0, 3)}
	b.Install()
	pkt := &net.Packet{Src: 0, Dst: 12}
	if !nw.Spines[1].ConsultDropFns(pkt) {
		t.Fatal("matching packet not dropped")
	}
	if nw.Spines[1].ConsultDropFns(&net.Packet{Src: 0, Dst: 13}) {
		t.Fatal("non-matching pair dropped")
	}
	if b.Dropped != 1 {
		t.Fatalf("dropped counter = %d", b.Dropped)
	}
}

// TestCoResidentInjectorsBothCount is the regression test for the DropFn
// clobbering bug: installing a second injector on the same spine used to
// overwrite the first hook entirely. With the drop-hook chain, a blackhole
// and a random-drop installed together must BOTH observe the full packet
// stream and keep accurate counters.
func TestCoResidentInjectorsBothCount(t *testing.T) {
	nw := testNet(t)
	sp := nw.Spines[0]
	bh := &Blackhole{Spine: sp, Match: func(src, dst int) bool { return src == 0 && dst == 12 }}
	rd := &RandomDrop{Spine: sp, Rate: 0.5, Rng: sim.NewRNG(9)}
	bh.Install()
	rd.Install()
	if got := sp.DropFnCount(); got != 2 {
		t.Fatalf("DropFnCount = %d after two installs, want 2", got)
	}

	const n = 10_000
	matched := 0
	for i := 0; i < n; i++ {
		pkt := &net.Packet{Src: i % 4, Dst: 12 + i%4}
		wasMatch := pkt.Src == 0 && pkt.Dst == 12
		dropped := sp.ConsultDropFns(pkt)
		if wasMatch {
			matched++
			if !dropped {
				t.Fatal("blackholed packet survived with co-resident random drop")
			}
		}
	}
	if bh.Dropped != uint64(matched) || matched == 0 {
		t.Fatalf("blackhole dropped %d, want %d", bh.Dropped, matched)
	}
	// The random dropper must have seen EVERY packet, including the ones the
	// blackhole also claimed, and dropped roughly half.
	if rd.Seen != n {
		t.Fatalf("random drop saw %d packets, want %d", rd.Seen, n)
	}
	frac := float64(rd.Dropped) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("random drop fraction = %.3f with co-resident blackhole, want ~0.5", frac)
	}

	// Uninstalling both restores a healthy switch.
	bh.Uninstall()
	rd.Uninstall()
	if got := sp.DropFnCount(); got != 0 {
		t.Fatalf("DropFnCount = %d after uninstall, want 0", got)
	}
	if sp.ConsultDropFns(&net.Packet{Src: 0, Dst: 12}) {
		t.Fatal("packet dropped after both injectors uninstalled")
	}
}

func TestUninstallIsIdempotentAndOrderIndependent(t *testing.T) {
	nw := testNet(t)
	sp := nw.Spines[2]
	a := &RandomDrop{Spine: sp, Rate: 1, Rng: sim.NewRNG(1)}
	b := &RandomDrop{Spine: sp, Rate: 0, Rng: sim.NewRNG(2)}
	a.Install()
	b.Install()
	a.Install() // double install must not duplicate the hook
	if got := sp.DropFnCount(); got != 2 {
		t.Fatalf("DropFnCount = %d, want 2", got)
	}
	a.Uninstall() // remove first-installed hook while second stays
	if got := sp.DropFnCount(); got != 1 {
		t.Fatalf("DropFnCount = %d after removing a, want 1", got)
	}
	if sp.ConsultDropFns(&net.Packet{}) {
		t.Fatal("rate-0 survivor hook dropped a packet")
	}
	if b.Seen != 1 {
		t.Fatalf("survivor hook saw %d packets, want 1", b.Seen)
	}
	a.Uninstall() // idempotent
	b.Uninstall()
	if got := sp.DropFnCount(); got != 0 {
		t.Fatalf("DropFnCount = %d, want 0", got)
	}
}
