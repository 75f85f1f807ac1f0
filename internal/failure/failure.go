// Package failure holds the primitives beneath internal/chaos: the switch
// malfunctions of §2.1 (silent random packet drops and deterministic packet
// blackholes at a core switch) as drop hooks, and the testbed cable cut.
// Hooks register through the switch's drop-hook chain, so several can
// coexist on one switch. The facade never calls this package directly: every
// failure, static or timed, reaches the fabric through a chaos injector,
// which adds parameter defaulting, snapshot/restore and onset/clear
// sequencing.
package failure

import (
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

// RandomDrop makes the given spine switch silently drop each transiting
// packet with probability rate (the paper uses 2% on one randomly selected
// core switch, §5.3.3). High-priority control traffic (ACKs, probe echoes)
// is dropped too — the malfunction is below the queueing layer.
type RandomDrop struct {
	Spine *net.Switch
	Rate  float64
	Rng   *sim.RNG

	Dropped uint64
	Seen    uint64

	hook      int
	installed bool
}

// Install hooks the drop function onto the switch (idempotent).
func (r *RandomDrop) Install() {
	if r.installed {
		return
	}
	r.installed = true
	r.hook = r.Spine.AddDropFn(func(p *net.Packet) bool {
		r.Seen++
		if r.Rng.Float64() < r.Rate {
			r.Dropped++
			return true
		}
		return false
	})
}

// Uninstall removes the hook, restoring the switch to health.
func (r *RandomDrop) Uninstall() {
	if !r.installed {
		return
	}
	r.installed = false
	r.Spine.RemoveDropFn(r.hook)
}

// Blackhole deterministically drops packets whose (src, dst) pair matches
// the configured predicate at one spine switch — modeling TCAM-deficit
// blackholes that match specific IP pairs [19]. The §5.3.3 scenario drops
// half of the source-destination pairs from one rack to another.
type Blackhole struct {
	Spine *net.Switch
	Match func(src, dst int) bool

	Dropped uint64

	hook      int
	installed bool
}

// Install hooks the drop function onto the switch (idempotent).
func (b *Blackhole) Install() {
	if b.installed {
		return
	}
	b.installed = true
	b.hook = b.Spine.AddDropFn(func(p *net.Packet) bool {
		if b.Match(p.Src, p.Dst) {
			b.Dropped++
			return true
		}
		return false
	})
}

// Uninstall removes the hook, restoring the switch to health.
func (b *Blackhole) Uninstall() {
	if !b.installed {
		return
	}
	b.installed = false
	b.Spine.RemoveDropFn(b.hook)
}

// RackPairBlackhole returns the §5.3.3 predicate: drop traffic (in both
// directions) between half of the host pairs from rack srcLeaf to rack
// dstLeaf. The "half" is chosen deterministically by parity of the host
// pair, mirroring a pattern-matching TCAM fault.
func RackPairBlackhole(nw *net.Network, srcLeaf, dstLeaf int) func(src, dst int) bool {
	return func(src, dst int) bool {
		s, d := src, dst
		// Normalize direction so ACKs of affected flows die too.
		if nw.LeafOf(s) == dstLeaf && nw.LeafOf(d) == srcLeaf {
			s, d = d, s
		}
		if nw.LeafOf(s) != srcLeaf || nw.LeafOf(d) != dstLeaf {
			return false
		}
		return (s+d)%2 == 0
	}
}

// CutCable removes one physical cable of a leaf-spine link — the paper's
// testbed asymmetry (Fig 8b): one of the two leaf1-spine1 cables is
// unplugged, leaving 3 of 4 paths and 75% of the bisection.
func CutCable(nw *net.Network, leaf, spine, cable int) {
	nw.SetCable(leaf, spine, cable, 0)
}
