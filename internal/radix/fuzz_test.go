package radix

import (
	"math/rand"
	"net/netip"
	"sort"
	"testing"

	"ripki/internal/netutil"
)

// The tree is the validation service's hot read path, Delete (used by
// live VRP withdrawals) leaves structural nodes behind by design, and
// Clone shares nodes copy-on-write — so Covering/Delete/Clone
// interleavings deserve model-based testing: every operation is
// mirrored into a plain map per live version and each tree must agree
// with its own brute-force answer afterwards.

// model is the naive reference: a map of valued canonical prefixes.
type model map[netip.Prefix]int

// covering computes the reference answer for Tree.Covering: every
// valued prefix containing addr, shortest to longest.
func (m model) covering(addr netip.Addr) []Entry[int] {
	var out []Entry[int]
	for p, v := range m {
		if p.Addr().Is4() == addr.Is4() && p.Contains(addr) {
			out = append(out, Entry[int]{Prefix: p, Value: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Bits() < out[j].Prefix.Bits() })
	return out
}

// coveringPrefix computes the reference answer for Tree.CoveringPrefix.
func (m model) coveringPrefix(q netip.Prefix) []Entry[int] {
	var out []Entry[int]
	for p, v := range m {
		if p.Addr().Is4() == q.Addr().Is4() && p.Bits() <= q.Bits() && p.Contains(q.Addr()) {
			out = append(out, Entry[int]{Prefix: p, Value: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Bits() < out[j].Prefix.Bits() })
	return out
}

// checkAgainstModel compares every query the service relies on.
func checkAgainstModel(t *testing.T, tr *Tree[int], m model, probes []netip.Addr) {
	t.Helper()
	if tr.Len() != len(m) {
		t.Fatalf("Len = %d, model has %d", tr.Len(), len(m))
	}
	for p, v := range m {
		got, ok := tr.Lookup(p)
		if !ok || got != v {
			t.Fatalf("Lookup(%v) = %v, %v; model has %v", p, got, ok, v)
		}
	}
	for _, addr := range probes {
		got := tr.Covering(addr, nil)
		want := m.covering(addr)
		if len(got) != len(want) {
			t.Fatalf("Covering(%v): %d entries, model says %d (%v vs %v)", addr, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Covering(%v)[%d] = %v, model says %v", addr, i, got[i], want[i])
			}
		}
		// CoveringPrefix at the host route must agree with Covering.
		q := netip.PrefixFrom(addr, netutil.FamilyBits(addr))
		gotP := tr.CoveringPrefix(q, nil)
		wantP := m.coveringPrefix(q)
		if len(gotP) != len(wantP) {
			t.Fatalf("CoveringPrefix(%v): %d entries, model says %d", q, len(gotP), len(wantP))
		}
		for i := range gotP {
			if gotP[i] != wantP[i] {
				t.Fatalf("CoveringPrefix(%v)[%d] = %v, model says %v", q, i, gotP[i], wantP[i])
			}
		}
	}
}

// smallPrefix4 draws a canonical IPv4 prefix from a deliberately small
// universe so inserts, deletes and probes collide often.
func smallPrefix4(rnd *rand.Rand) netip.Prefix {
	bits := rnd.Intn(25) // 0../24
	addr := netip.AddrFrom4([4]byte{byte(10 + rnd.Intn(2)), byte(rnd.Intn(4)), byte(rnd.Intn(4)), 0})
	p, _ := netutil.Canonical(netip.PrefixFrom(addr, bits))
	return p
}

// version is one live tree with its own model.
type version struct {
	tr *Tree[int]
	m  model
}

// clone forks a version: the tree by Clone, the model by copy.
func (v version) clone() version {
	m := make(model, len(v.m))
	for p, x := range v.m {
		m[p] = x
	}
	return version{tr: v.tr.Clone(), m: m}
}

// maxVersions bounds how many live versions a run forks.
const maxVersions = 4

// TestCoveringDeleteInterleavingsProperty runs randomized
// insert/delete/re-insert/clone interleavings against the model.
// Deletes leave structural nodes in place, so re-inserting under a
// deleted glue node is exactly the shape that needs coverage; clones
// make every write also prove it leaves the other versions alone.
func TestCoveringDeleteInterleavingsProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		vs := []version{{tr: new(Tree[int]), m: model{}}}
		probes := make([]netip.Addr, 0, 16)
		for i := 0; i < 16; i++ {
			probes = append(probes, netip.AddrFrom4([4]byte{byte(10 + rnd.Intn(2)), byte(rnd.Intn(4)), byte(rnd.Intn(4)), byte(rnd.Intn(2))}))
		}
		for op := 0; op < 400; op++ {
			p := smallPrefix4(rnd)
			v := vs[rnd.Intn(len(vs))]
			switch rnd.Intn(7) {
			case 0, 1, 2, 3: // insert wins 2:1 so the trees stay populated
				x := rnd.Intn(1000)
				if err := v.tr.Insert(p, x); err != nil {
					t.Fatal(err)
				}
				v.m[p] = x
			case 4, 5:
				got := v.tr.Delete(p)
				_, want := v.m[p]
				if got != want {
					t.Fatalf("seed %d op %d: Delete(%v) = %v, model says %v", seed, op, p, got, want)
				}
				delete(v.m, p)
			case 6:
				if len(vs) < maxVersions {
					vs = append(vs, v.clone())
				}
			}
			if op%40 == 39 {
				for _, v := range vs {
					checkAgainstModel(t, v.tr, v.m, probes)
				}
			}
		}
		for _, v := range vs {
			checkAgainstModel(t, v.tr, v.m, probes)
		}
	}
}

// FuzzCoveringDelete interprets fuzz bytes as an op sequence over a
// tiny prefix universe and a few cloned versions, and cross-checks the
// chosen version's tree against its model after every query. Run with
// `go test -fuzz FuzzCoveringDelete`; the seed corpus keeps it
// meaningful as a plain test.
func FuzzCoveringDelete(f *testing.F) {
	f.Add([]byte{0x00, 0x12, 0x83, 0x45, 0x02, 0x7f})
	f.Add([]byte{0xff, 0x01, 0x80, 0x81, 0x82, 0x83, 0x84, 0x85})
	f.Add([]byte("interleave-deletes-with-covering-queries"))
	f.Add([]byte{0x00, 0x10, 0x01, 0x04, 0x00, 0x00, 0x10, 0x11, 0x02, 0x02, 0x10, 0x01, 0x13, 0x10, 0x01, 0x03, 0x10, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		vs := []version{{tr: new(Tree[int]), m: model{}}}
		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i], data[i+1], data[i+2]
			bits := int(a) % 25
			addr := netip.AddrFrom4([4]byte{10, a % 4, b % 4, 0})
			p, _ := netutil.Canonical(netip.PrefixFrom(addr, bits))
			v := vs[int(op>>4)%len(vs)]
			switch op % 5 {
			case 0, 1:
				x := int(b)
				if err := v.tr.Insert(p, x); err != nil {
					t.Fatal(err)
				}
				v.m[p] = x
			case 2:
				got := v.tr.Delete(p)
				_, want := v.m[p]
				if got != want {
					t.Fatalf("Delete(%v) = %v, model says %v", p, got, want)
				}
				delete(v.m, p)
			case 3:
				probe := netip.AddrFrom4([4]byte{10, a % 4, b % 4, b % 2})
				got := v.tr.Covering(probe, nil)
				want := v.m.covering(probe)
				if len(got) != len(want) {
					t.Fatalf("Covering(%v): %v, model says %v", probe, got, want)
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("Covering(%v)[%d] = %v, model says %v", probe, j, got[j], want[j])
					}
				}
			case 4:
				if len(vs) < maxVersions {
					vs = append(vs, v.clone())
				}
			}
		}
		for _, v := range vs {
			if v.tr.Len() != len(v.m) {
				t.Fatalf("Len = %d, model has %d", v.tr.Len(), len(v.m))
			}
		}
	})
}
