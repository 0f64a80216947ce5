package measure

import (
	"math/rand"
	"reflect"
	"testing"

	"ripki/internal/dns"
	"ripki/internal/httparchive"
	"ripki/internal/netutil"
	"ripki/internal/rpki/vrp"
	"ripki/internal/webworld"
)

// TestIncrementalTinyUniverse exercises the dirty paths one at a time
// against the hand-crafted fixture, where each mutation's expected
// blast radius is known.
func TestIncrementalTinyUniverse(t *testing.T) {
	f := newTinyFixture(t)
	set := f.cfg.VRPs
	inc, err := NewIncremental(f.list, f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		if err := inc.Refresh(); err != nil {
			t.Fatalf("%s: refresh: %v", step, err)
		}
		full, err := Run(f.list, f.cfg)
		if err != nil {
			t.Fatalf("%s: full run: %v", step, err)
		}
		if !reflect.DeepEqual(inc.Dataset().Results, full.Results) {
			t.Fatalf("%s: incremental results diverge from full recompute", step)
		}
		if !reflect.DeepEqual(inc.Dataset().Totals, full.Totals) {
			t.Fatalf("%s: incremental totals diverge from full recompute", step)
		}
	}
	check("baseline")

	// Fix the hijacked ROA: hijacked.example flips invalid → valid.
	wrong := vrp.VRP{Prefix: netutil.MustPrefix("198.51.0.0/16"), MaxLength: 16, ASN: 3333}
	set.Remove(wrong)
	inc.DirtyVRP(wrong.Prefix)
	set.Add(vrp.VRP{Prefix: netutil.MustPrefix("198.51.0.0/16"), MaxLength: 16, ASN: 666})
	inc.DirtyVRP(netutil.MustPrefix("198.51.0.0/16"))
	check("roa fix")

	// ghost.example comes alive: the NXDOMAIN was recorded as a consulted
	// name, so a record appearing later must invalidate.
	reg := f.cfg.Resolver.(dns.RegistryResolver).Registry
	reg.SetMutationHook(inc.DirtyHost)
	defer reg.SetMutationHook(nil)
	reg.Add(dns.RR{Name: "ghost.example", Type: dns.TypeA, TTL: 60, Addr: netutil.MustAddr("193.0.6.99")})
	check("nxdomain resurrect")

	// CNAME repoint: cdnstyle's www chain now terminates on secure's
	// address; chained owner names were recorded, so this must dirty it.
	reg.Remove("cust.fastcdn.wld", dns.TypeCNAME)
	reg.AddCNAME("cust.fastcdn.wld", "www.secure.example", 60)
	check("cname repoint")
}

// TestIncrementalRandomInterleavings is the property test behind the
// incremental contract: against a generated world, any seeded random
// interleaving of ROA issues/revokes and DNS record mutations — with
// refreshes at arbitrary points — leaves the incremental Dataset deeply
// equal to a full Run over the same mutated world. Divergence here
// means a reverse index under-marked.
func TestIncrementalRandomInterleavings(t *testing.T) {
	if testing.Short() {
		t.Skip("world generation in -short mode")
	}
	w, err := webworld.Generate(webworld.Config{Seed: 7, Domains: 400})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 99} {
		t.Run(string(rune('A'+seed%26)), func(t *testing.T) {
			runInterleaving(t, w, seed)
		})
	}
}

func runInterleaving(t *testing.T, w *webworld.World, seed int64) {
	set := w.Validation().VRPs.Clone()
	cfg := Config{
		Resolver:    dns.RegistryResolver{Registry: w.Registry},
		RIB:         w.RIB,
		VRPs:        set,
		HTTPArchive: httparchive.New(w.CDNSuffixes),
		BinWidth:    50,
		Workers:     4,
	}
	inc, err := NewIncremental(w.List, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Registry.SetMutationHook(inc.DirtyHost)
	defer w.Registry.SetMutationHook(nil)

	rnd := rand.New(rand.NewSource(seed))
	routed := w.RoutedV4Prefixes()
	entries := w.List.Entries()

	ops := []func(){
		func() { // ROA flip, sometimes with a mismatching origin
			p := routed[rnd.Intn(len(routed))]
			origin, ok := w.PinnedOriginOf(p)
			if !ok {
				origin = 64512
			}
			if rnd.Intn(3) == 0 {
				origin++
			}
			v := vrp.VRP{Prefix: p, MaxLength: p.Bits(), ASN: origin}
			if set.Contains(v) {
				set.Remove(v)
			} else {
				set.Add(v)
			}
			inc.DirtyVRP(v.Prefix)
		},
		func() { // A record flip on an apex or www name
			name := entries[rnd.Intn(len(entries))].Domain
			if rnd.Intn(2) == 0 {
				name = "www." + name
			}
			if len(w.Registry.Lookup(name, dns.TypeA)) > 0 {
				w.Registry.Remove(name, dns.TypeA)
				return
			}
			addr := routed[rnd.Intn(len(routed))].Addr()
			w.Registry.Add(dns.RR{Name: name, Type: dns.TypeA, TTL: 60, Addr: addr})
		},
		func() { // CNAME repoint onto another domain's www
			from := "www." + entries[rnd.Intn(len(entries))].Domain
			to := "www." + entries[rnd.Intn(len(entries))].Domain
			w.Registry.Remove(from, dns.TypeA)
			w.Registry.Remove(from, dns.TypeCNAME)
			w.Registry.AddCNAME(from, to, 60)
		},
	}

	for i := 0; i < 60; i++ {
		ops[rnd.Intn(len(ops))]()
		if i%6 == 5 {
			if err := inc.Refresh(); err != nil {
				t.Fatalf("op %d: refresh: %v", i, err)
			}
			full, err := Run(w.List, cfg)
			if err != nil {
				t.Fatalf("op %d: full run: %v", i, err)
			}
			if !reflect.DeepEqual(inc.Dataset().Results, full.Results) {
				for j := range full.Results {
					if !reflect.DeepEqual(inc.Dataset().Results[j], full.Results[j]) {
						t.Fatalf("op %d: domain %q diverged:\nincremental %+v\nfull        %+v",
							i, entries[j].Domain, inc.Dataset().Results[j], full.Results[j])
					}
				}
			}
			if !reflect.DeepEqual(inc.Dataset().Totals, full.Totals) {
				t.Fatalf("op %d: totals diverged:\nincremental %+v\nfull        %+v",
					i, inc.Dataset().Totals, full.Totals)
			}
		}
	}
}
