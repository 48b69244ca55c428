package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"scidive/internal/packet"
)

// TestFragGroupsMirrorReassembler holds fragGroups to its contract — the
// buffered frames of exactly the fragment streams the reassembler holds,
// with the same first-arrival times — over random schedules: capture
// time stepping back as well as forward, completions, alignment
// rejections, capacity evictions and checkpoint imports of older state.
// Both sides expire lazily behind a lower bound on the oldest stream, so
// a bound left too high shows up here as a group outliving its stream,
// and one left too low as a bound that lags now by more than the timeout
// right after a prune.
func TestFragGroupsMirrorReassembler(t *testing.T) {
	src, dst := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	for seed := int64(1); seed <= 30; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := packet.NewReassembler(0)
			g := newFragGroups()
			r.OnEvict(g.drop)
			var saved []packet.FragStream
			var savedGroups []fragGroupSnap
			now := time.Duration(0)
			for step := 0; step < 400; step++ {
				now += time.Duration(rng.Intn(30000)-8000) * time.Millisecond
				op := rng.Intn(20)
				switch {
				case op == 0:
					r.SetLimit(rng.Intn(4))
				case op == 1:
					saved = r.ExportStreams()
					savedGroups = exportRouter(nil, &g, nil).frags
				case op == 2 && saved != nil:
					r.ImportStreams(saved, r.CapacityEvicted())
					g.install(savedGroups)
				case op == 3:
					g.expire(r, now)
				default:
					// Fragments only (the prelude sends nothing else here): the two
					// halves of datagrams over six identifications, and a
					// misaligned middle fragment the reassembler refuses.
					h := packet.IPv4Header{Src: src, Dst: dst, Protocol: packet.ProtoUDP, ID: uint16(rng.Intn(6))}
					body := make([]byte, 16)
					switch rng.Intn(3) {
					case 0:
						h.Flags = packet.FlagMF
					case 1:
						h.FragOffset = 2
					default:
						h.Flags, h.FragOffset, body = packet.FlagMF, 2, body[:13]
					}
					g.insert(r, h, body, now, []byte{byte(step)})
				}
				if settled := op >= 3 || (op == 2 && saved == nil); settled && len(g.groups) > 0 && now-g.floor > packet.DefaultReassemblyTimeout {
					t.Fatalf("step %d: floor %v left more than the timeout behind now %v: every frame would scan", step, g.floor, now)
				}
				held := make(map[fragIdent]time.Duration)
				for _, st := range r.ExportStreams() {
					held[fragIdent{src: st.ID.Src, dst: st.ID.Dst, proto: st.ID.Proto, id: st.ID.ID}] = st.First
				}
				if len(held) != len(g.groups) {
					t.Fatalf("step %d at %v: reassembler holds %d streams, groups %d", step, now, len(held), len(g.groups))
				}
				for id, grp := range g.groups {
					if first, ok := held[id]; !ok || first != grp.first {
						t.Fatalf("step %d at %v: group %v (first %v) has no stream with that first arrival (%v, %v)", step, now, id, grp.first, first, ok)
					}
				}
			}
		})
	}
}
