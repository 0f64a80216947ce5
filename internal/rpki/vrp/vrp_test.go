package vrp

import (
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"testing"

	"ripki/internal/netutil"
)

func mustAdd(t *testing.T, s *Set, prefix string, maxLen int, asn uint32) {
	t.Helper()
	if err := s.Add(VRP{Prefix: netutil.MustPrefix(prefix), MaxLength: maxLen, ASN: asn}); err != nil {
		t.Fatal(err)
	}
}

// TestRFC6811TruthTable walks the canonical origin-validation cases.
func TestRFC6811TruthTable(t *testing.T) {
	s := NewSet()
	mustAdd(t, s, "10.0.0.0/16", 24, 64500)
	mustAdd(t, s, "10.0.0.0/16", 16, 64501)
	mustAdd(t, s, "2001:db8::/32", 48, 64500)

	cases := []struct {
		prefix string
		origin uint32
		want   State
	}{
		// Exact prefix, authorised AS.
		{"10.0.0.0/16", 64500, Valid},
		// More-specific within maxLength.
		{"10.0.128.0/24", 64500, Valid},
		// More-specific beyond maxLength → Invalid even for the right AS.
		{"10.0.128.0/25", 64500, Invalid},
		// Covered, wrong AS.
		{"10.0.0.0/16", 64999, Invalid},
		// Second VRP matches at /16 only.
		{"10.0.0.0/16", 64501, Valid},
		{"10.0.0.0/17", 64501, Invalid},
		// Not covered at all.
		{"11.0.0.0/16", 64500, NotFound},
		// Less specific than any VRP is NOT covered (RFC 6811: covered
		// means VRP prefix contains route prefix).
		{"10.0.0.0/8", 64500, NotFound},
		// IPv6.
		{"2001:db8:47::/48", 64500, Valid},
		{"2001:db8:47::/49", 64500, Invalid},
		{"2001:db9::/32", 64500, NotFound},
		// AS0 never validates (AS0 VRPs are a disavowal).
		{"10.0.0.0/16", 0, Invalid},
	}
	for _, c := range cases {
		got := s.Validate(netutil.MustPrefix(c.prefix), c.origin)
		if got != c.want {
			t.Errorf("Validate(%s, AS%d) = %v, want %v", c.prefix, c.origin, got, c.want)
		}
	}
}

func TestValidateExplain(t *testing.T) {
	s := NewSet()
	mustAdd(t, s, "10.0.0.0/16", 24, 64500)
	mustAdd(t, s, "10.0.0.0/8", 8, 64400)
	st, covering := s.ValidateExplain(netutil.MustPrefix("10.0.1.0/24"), 64500)
	if st != Valid {
		t.Fatalf("state = %v, want Valid", st)
	}
	if len(covering) != 2 {
		t.Fatalf("covering = %v, want 2 VRPs", covering)
	}
}

func TestAddValidation(t *testing.T) {
	s := NewSet()
	if err := s.Add(VRP{Prefix: netip.Prefix{}, MaxLength: 24, ASN: 1}); err == nil {
		t.Error("invalid prefix accepted")
	}
	if err := s.Add(VRP{Prefix: netutil.MustPrefix("10.0.0.0/16"), MaxLength: 8, ASN: 1}); err == nil {
		t.Error("maxLength < bits accepted")
	}
	if err := s.Add(VRP{Prefix: netutil.MustPrefix("10.0.0.0/16"), MaxLength: 33, ASN: 1}); err == nil {
		t.Error("maxLength > 32 accepted")
	}
}

func TestDuplicatesIgnored(t *testing.T) {
	s := NewSet()
	mustAdd(t, s, "10.0.0.0/16", 24, 64500)
	mustAdd(t, s, "10.0.0.0/16", 24, 64500)
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	// Same prefix, different maxLength or ASN are distinct.
	mustAdd(t, s, "10.0.0.0/16", 20, 64500)
	mustAdd(t, s, "10.0.0.0/16", 24, 64501)
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
}

func TestAllSorted(t *testing.T) {
	s := NewSet()
	mustAdd(t, s, "192.0.2.0/24", 24, 7)
	mustAdd(t, s, "10.0.0.0/8", 8, 3)
	mustAdd(t, s, "10.0.0.0/8", 8, 1)
	mustAdd(t, s, "2001:db8::/32", 32, 5)
	all := s.All()
	if len(all) != 4 {
		t.Fatalf("All = %v", all)
	}
	want := []VRP{
		{netutil.MustPrefix("10.0.0.0/8"), 8, 1},
		{netutil.MustPrefix("10.0.0.0/8"), 8, 3},
		{netutil.MustPrefix("192.0.2.0/24"), 24, 7},
		{netutil.MustPrefix("2001:db8::/32"), 32, 5},
	}
	for i := range want {
		if all[i] != want[i] {
			t.Errorf("All[%d] = %v, want %v", i, all[i], want[i])
		}
	}
}

func TestHasASN(t *testing.T) {
	s := NewSet()
	mustAdd(t, s, "10.0.0.0/8", 8, 100)
	if !s.HasASN(100) {
		t.Error("HasASN(100) = false")
	}
	if s.HasASN(101) {
		t.Error("HasASN(101) = true")
	}
}

func TestDiff(t *testing.T) {
	old := NewSet()
	mustAdd(t, old, "10.0.0.0/8", 8, 1)
	mustAdd(t, old, "11.0.0.0/8", 8, 2)
	cur := NewSet()
	mustAdd(t, cur, "10.0.0.0/8", 8, 1)
	mustAdd(t, cur, "12.0.0.0/8", 8, 3)
	ann, wd := cur.Diff(old)
	if len(ann) != 1 || ann[0].Prefix != netutil.MustPrefix("12.0.0.0/8") {
		t.Errorf("announce = %v", ann)
	}
	if len(wd) != 1 || wd[0].Prefix != netutil.MustPrefix("11.0.0.0/8") {
		t.Errorf("withdraw = %v", wd)
	}
}

func TestStateString(t *testing.T) {
	if NotFound.String() != "not found" || Valid.String() != "valid" || Invalid.String() != "invalid" {
		t.Error("State strings wrong")
	}
	if State(99).String() != "State(99)" {
		t.Error("unknown state string wrong")
	}
}

// Property: Validate agrees with a naive scan over all VRPs.
func TestValidateAgainstNaive(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	s := NewSet()
	var all []VRP
	for i := 0; i < 800; i++ {
		var b [4]byte
		rnd.Read(b[:])
		bits := 8 + rnd.Intn(17) // /8../24
		p := netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
		v := VRP{Prefix: p, MaxLength: bits + rnd.Intn(33-bits), ASN: uint32(rnd.Intn(16))}
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
		all = append(all, v)
	}
	for i := 0; i < 3000; i++ {
		var b [4]byte
		rnd.Read(b[:])
		bits := 8 + rnd.Intn(25)
		p := netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
		asn := uint32(rnd.Intn(16))
		if got, want := s.Validate(p, asn), naiveState(all, p, asn); got != want {
			t.Fatalf("Validate(%v, AS%d) = %v, want %v", p, asn, got, want)
		}
	}
}

// naiveState is RFC 6811 by a linear scan over vs.
func naiveState(vs []VRP, p netip.Prefix, asn uint32) State {
	covered, valid := false, false
	for _, v := range vs {
		if netutil.Covers(v.Prefix, p) {
			covered = true
			if v.ASN == asn && asn != 0 && p.Bits() <= v.MaxLength {
				valid = true
			}
		}
	}
	switch {
	case valid:
		return Valid
	case covered:
		return Invalid
	default:
		return NotFound
	}
}

// randomVRPs builds a deterministic pseudo-random VRP population with
// overlapping prefixes (aggregates, more-specifics, sibling origins).
func randomVRPs(rnd *rand.Rand, n int) []VRP {
	vs := make([]VRP, 0, n)
	for i := 0; i < n; i++ {
		bits := 8 + rnd.Intn(17) // /8../24
		addr := netip.AddrFrom4([4]byte{byte(10 + rnd.Intn(4)), byte(rnd.Intn(256)), byte(rnd.Intn(256)), 0})
		p, _ := netutil.Canonical(netip.PrefixFrom(addr, bits))
		maxLen := bits + rnd.Intn(32-bits+1)
		vs = append(vs, VRP{Prefix: p, MaxLength: maxLen, ASN: uint32(64500 + rnd.Intn(16))})
	}
	return vs
}

// randomRoutes draws probe routes at and below VRP prefixes from vs and
// anywhere in unicast space, so every RFC 6811 outcome shows up.
func randomRoutes(rnd *rand.Rand, vs []VRP, n int) []netip.Prefix {
	out := make([]netip.Prefix, n)
	for i := range out {
		if i%3 == 0 {
			v := vs[rnd.Intn(len(vs))]
			bits := v.Prefix.Bits() + rnd.Intn(32-v.Prefix.Bits()+1)
			out[i], _ = netutil.Canonical(netip.PrefixFrom(v.Prefix.Addr(), bits))
		} else {
			addr := netip.AddrFrom4([4]byte{byte(rnd.Intn(224)), byte(rnd.Intn(256)), byte(rnd.Intn(256)), 0})
			out[i], _ = netutil.Canonical(netip.PrefixFrom(addr, 8+rnd.Intn(25)))
		}
	}
	return out
}

// checkSetModel compares a set against the VRPs it should hold: Len,
// the sorted All, Contains, and Validate (against a linear scan) on
// every probe route at a sweep of origins.
func checkSetModel(t *testing.T, name string, s *Set, model map[VRP]bool, routes []netip.Prefix) {
	t.Helper()
	want := make([]VRP, 0, len(model))
	for v := range model {
		want = append(want, v)
	}
	slices.SortFunc(want, Compare)
	if s.Len() != len(want) {
		t.Fatalf("%s: Len = %d, model has %d", name, s.Len(), len(want))
	}
	if got := s.All(); !slices.Equal(got, want) {
		t.Fatalf("%s: All differs from model (%d vs %d entries)", name, len(got), len(want))
	}
	for _, v := range want {
		if !s.Contains(v) {
			t.Fatalf("%s: Contains(%v) = false", name, v)
		}
	}
	for i, p := range routes {
		asn := uint32(64500 + i%18)
		if got, w := s.Validate(p, asn), naiveState(want, p, asn); got != w {
			t.Fatalf("%s: Validate(%v, AS%d) = %v, model says %v", name, p, asn, got, w)
		}
	}
}

// TestCloneMatchesThenDiverges: a clone answers exactly like its
// source, and afterwards each side — including a clone of the clone —
// takes its own adds and removes without the others seeing them.
func TestCloneMatchesThenDiverges(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	vs := randomVRPs(rnd, 400)
	src, err := FromVRPs(vs)
	if err != nil {
		t.Fatal(err)
	}
	routes := randomRoutes(rnd, vs, 1500)
	srcModel := make(map[VRP]bool)
	for _, v := range vs {
		srcModel[v] = true
	}
	copyModel := func(m map[VRP]bool) map[VRP]bool {
		c := make(map[VRP]bool, len(m))
		for v := range m {
			c[v] = true
		}
		return c
	}
	c1 := src.Clone()
	c1Model := copyModel(srcModel)
	checkSetModel(t, "fresh clone", c1, c1Model, routes)
	for i, v := range src.All() {
		_, sc := src.ValidateExplain(v.Prefix, v.ASN)
		_, cc := c1.ValidateExplain(v.Prefix, v.ASN)
		if !slices.Equal(sc, cc) {
			t.Fatalf("VRP %d %v: covering differs: source %v, clone %v", i, v, sc, cc)
		}
	}

	type side struct {
		name  string
		set   *Set
		model map[VRP]bool
	}
	sides := []side{{"source", src, srcModel}, {"clone", c1, c1Model}}
	for round := 0; round < 6; round++ {
		if round == 3 {
			sides = append(sides, side{"clone of clone", c1.Clone(), copyModel(c1Model)})
		}
		for _, sd := range sides {
			// Adds land on fresh and existing prefixes alike (the
			// population overlaps), so shared payload slices get
			// appended to from several versions.
			for _, v := range randomVRPs(rnd, 40) {
				if err := sd.set.Add(v); err != nil {
					t.Fatal(err)
				}
				sd.model[v] = true
			}
			all := sd.set.All()
			for i := 0; i < 30; i++ {
				v := all[rnd.Intn(len(all))]
				if got := sd.set.Remove(v); got != sd.model[v] {
					t.Fatalf("%s: Remove(%v) = %v, model says %v", sd.name, v, got, sd.model[v])
				}
				delete(sd.model, v)
			}
		}
		for _, sd := range sides {
			checkSetModel(t, sd.name, sd.set, sd.model, routes)
		}
	}
}

// TestConcurrentCloneAndValidate is the sweep pattern under -race:
// many goroutines clone one shared set and edit their clones while
// others validate against the original, which must never change.
func TestConcurrentCloneAndValidate(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	vs := randomVRPs(rnd, 300)
	shared, err := FromVRPs(vs)
	if err != nil {
		t.Fatal(err)
	}
	routes := randomRoutes(rnd, vs, 64)
	want := make([]State, len(routes))
	for i, p := range routes {
		want[i] = shared.Validate(p, uint32(64500+i%16))
	}
	before := shared.All()

	var wg sync.WaitGroup
	errs := make(chan string, 16) // one slot per goroutine
	for g := 0; g < 8; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20; i++ {
				c := shared.Clone()
				for _, v := range randomVRPs(r, 10) {
					if err := c.Add(v); err != nil {
						errs <- err.Error()
						return
					}
					c.Validate(v.Prefix, v.ASN)
				}
				for _, v := range vs[:10] {
					c.Remove(v)
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				j := (g*31 + i) % len(routes)
				if got := shared.Validate(routes[j], uint32(64500+j%16)); got != want[j] {
					errs <- "shared set changed under a clone's writes"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if !slices.Equal(shared.All(), before) {
		t.Fatal("shared set's contents changed")
	}
}

func BenchmarkValidate(b *testing.B) {
	rnd := rand.New(rand.NewSource(4))
	s := NewSet()
	for i := 0; i < 20000; i++ {
		var buf [4]byte
		rnd.Read(buf[:])
		bits := 8 + rnd.Intn(17)
		p := netip.PrefixFrom(netip.AddrFrom4(buf), bits).Masked()
		s.Add(VRP{Prefix: p, MaxLength: bits, ASN: uint32(rnd.Intn(65000))})
	}
	queries := make([]netip.Prefix, 1024)
	for i := range queries {
		var buf [4]byte
		rnd.Read(buf[:])
		queries[i] = netip.PrefixFrom(netip.AddrFrom4(buf), 24).Masked()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Validate(queries[i%len(queries)], 64500)
	}
}
