package packet

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"
)

// The reassemblers expire lazily: each keeps a lower bound (floor) on the
// oldest activity and ranges over its table only once now has passed it
// by the timeout. These tests run random schedules — capture time
// stepping back as well as forward, RST/FIN teardown, capacity evictions,
// checkpoint imports of older state — through a reassembler and through a
// reference that scans the whole table before every step, and require the
// same state and the same expirations after every step. They also check
// the bound itself: it never exceeds the true minimum (or an expiry would
// be missed), and right after a step at now it is within the timeout of
// now (or the next frame would scan again).

const expiryTestTimeout = 10 * time.Second

// expiryStep advances a schedule's clock: mostly forward, sometimes back.
func expiryStep(rng *rand.Rand, now time.Duration) time.Duration {
	return now + time.Duration(rng.Intn(12000)-4000)*time.Millisecond
}

// scanStreams is the reference expiry: the whole table, every time.
func scanStreams(r *StreamReassembler, now time.Duration) {
	for k, st := range r.streams {
		if now-st.last > r.timeout {
			delete(r.streams, k)
			if r.onExpire != nil {
				r.onExpire(k)
			}
		}
	}
}

func checkStreamFloor(t *testing.T, r *StreamReassembler, now time.Duration, settled bool) {
	t.Helper()
	for id, st := range r.streams {
		if st.last < r.floor {
			t.Fatalf("floor %v above stream %v's last activity %v", r.floor, id, st.last)
		}
	}
	if settled && now-r.floor > r.timeout {
		t.Fatalf("floor %v left more than the timeout behind now %v: every frame would scan", r.floor, now)
	}
}

func TestStreamExpiryBoundMatchesScan(t *testing.T) {
	ids := make([]StreamID, 6)
	for i := range ids {
		ids[i] = sid(uint16(1000+i), 5060)
	}
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			got, ref := NewStreamReassembler(expiryTestTimeout), NewStreamReassembler(expiryTestTimeout)
			var gotExpired, refExpired []StreamID
			got.OnExpire(func(id StreamID) { gotExpired = append(gotExpired, id) })
			ref.OnExpire(func(id StreamID) { refExpired = append(refExpired, id) })
			var gotEvicted, refEvicted []StreamID
			got.OnEvict(func(id StreamID) { gotEvicted = append(gotEvicted, id) })
			ref.OnEvict(func(id StreamID) { refEvicted = append(refEvicted, id) })
			seqs := make([]uint32, len(ids))
			var saved []TCPStreamState
			now := time.Duration(0)
			for step := 0; step < 400; step++ {
				now = expiryStep(rng, now)
				settled := true
				switch op := rng.Intn(20); {
				case op == 0:
					n := rng.Intn(4)
					got.SetLimit(n)
					ref.SetLimit(n)
					settled = false
				case op == 1:
					saved = got.ExportStreams()
					settled = false
				case op == 2 && saved != nil:
					// An older checkpoint: its streams may predate the floor.
					got.ImportStreams(saved, got.CapacityEvicted())
					ref.ImportStreams(saved, ref.CapacityEvicted())
					checkStreamFloor(t, got, now, false)
					settled = false
				case op == 3:
					scanStreams(ref, now)
					got.Expire(now)
				default:
					i := rng.Intn(len(ids))
					h := TCPHeader{Seq: seqs[i], Flags: TCPFlagACK}
					switch rng.Intn(16) {
					case 0:
						h.Flags |= TCPFlagSYN
					case 1:
						h.Flags |= TCPFlagFIN
					case 2:
						h.Flags = TCPFlagRST
					case 3:
						h.Seq += uint32(rng.Intn(40)) // a gap: buffered out of order
					}
					payload := make([]byte, rng.Intn(24))
					if !h.RST() {
						seqs[i] = h.Seq + uint32(len(payload))
						if h.SYN() {
							seqs[i]++
						}
					}
					scanStreams(ref, now)
					var gotBytes, refBytes []byte
					gotClosed := got.Push(ids[i], h, payload, now, func(b []byte) { gotBytes = append(gotBytes, b...) })
					refClosed := ref.Push(ids[i], h, payload, now, func(b []byte) { refBytes = append(refBytes, b...) })
					if gotClosed != refClosed || !slices.Equal(gotBytes, refBytes) {
						t.Fatalf("step %d: push closed=%v delivered %d bytes, reference closed=%v delivered %d", step, gotClosed, len(gotBytes), refClosed, len(refBytes))
					}
				}
				if settled {
					checkStreamFloor(t, got, now, true)
				}
				if g, w := got.ExportStreams(), ref.ExportStreams(); !reflect.DeepEqual(g, w) {
					t.Fatalf("step %d at %v: streams\n%+v\nreference\n%+v", step, now, g, w)
				}
				for _, set := range []*[]StreamID{&gotExpired, &refExpired, &gotEvicted, &refEvicted} {
					slices.SortFunc(*set, func(a, b StreamID) int {
						if a.less(b) {
							return -1
						}
						if b.less(a) {
							return 1
						}
						return 0
					})
				}
				if !slices.Equal(gotExpired, refExpired) || !slices.Equal(gotEvicted, refEvicted) {
					t.Fatalf("step %d at %v: expired %v evicted %v, reference expired %v evicted %v", step, now, gotExpired, gotEvicted, refExpired, refEvicted)
				}
				gotExpired, refExpired, gotEvicted, refEvicted = gotExpired[:0], refExpired[:0], gotEvicted[:0], refEvicted[:0]
			}
		})
	}
}

// scanFrags is the reference expiry for the fragment reassembler.
func scanFrags(r *Reassembler, now time.Duration) {
	for k, fb := range r.bufs {
		if now-fb.first > r.timeout {
			delete(r.bufs, k)
		}
	}
}

func checkFragFloor(t *testing.T, r *Reassembler, now time.Duration, settled bool) {
	t.Helper()
	for k, fb := range r.bufs {
		if fb.first < r.floor {
			t.Fatalf("floor %v above stream %v's first fragment %v", r.floor, k, fb.first)
		}
	}
	if settled && len(r.bufs) > 0 && now-r.floor > r.timeout {
		t.Fatalf("floor %v left more than the timeout behind now %v: every frame would scan", r.floor, now)
	}
}

func TestReassemblerExpiryBoundMatchesScan(t *testing.T) {
	src, dst := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			got, ref := NewReassembler(expiryTestTimeout), NewReassembler(expiryTestTimeout)
			var gotEvicted, refEvicted []FragID
			got.OnEvict(func(id FragID) { gotEvicted = append(gotEvicted, id) })
			ref.OnEvict(func(id FragID) { refEvicted = append(refEvicted, id) })
			var saved []FragStream
			now := time.Duration(0)
			for step := 0; step < 400; step++ {
				now = expiryStep(rng, now)
				settled := true
				switch op := rng.Intn(20); {
				case op == 0:
					n := rng.Intn(4)
					got.SetLimit(n)
					ref.SetLimit(n)
					settled = false
				case op == 1:
					saved = got.ExportStreams()
					settled = false
				case op == 2 && saved != nil:
					got.ImportStreams(saved, got.CapacityEvicted())
					ref.ImportStreams(saved, ref.CapacityEvicted())
					checkFragFloor(t, got, now, false)
					settled = false
				case op == 3:
					scanFrags(ref, now)
					got.Expire(now)
				default:
					// Two-fragment datagrams over six identifications: the
					// first half, the last half, or both in one frame.
					h := IPv4Header{Src: src, Dst: dst, Protocol: ProtoUDP, ID: uint16(rng.Intn(6))}
					payload := make([]byte, 16)
					switch rng.Intn(3) {
					case 0:
						h.Flags = FlagMF
					case 1:
						h.FragOffset = 2
					}
					scanFrags(ref, now)
					_, gp, gdone, gerr := got.Insert(h, payload, now)
					_, rp, rdone, rerr := ref.Insert(h, payload, now)
					if gdone != rdone || len(gp) != len(rp) || (gerr == nil) != (rerr == nil) {
						t.Fatalf("step %d: insert done=%v len=%d err=%v, reference done=%v len=%d err=%v", step, gdone, len(gp), gerr, rdone, len(rp), rerr)
					}
				}
				if settled {
					checkFragFloor(t, got, now, true)
				}
				if g, w := got.ExportStreams(), ref.ExportStreams(); !reflect.DeepEqual(g, w) {
					t.Fatalf("step %d at %v: fragment streams\n%+v\nreference\n%+v", step, now, g, w)
				}
				if !slices.Equal(gotEvicted, refEvicted) {
					t.Fatalf("step %d: evicted %v, reference %v", step, gotEvicted, refEvicted)
				}
				gotEvicted, refEvicted = gotEvicted[:0], refEvicted[:0]
			}
		})
	}
}
