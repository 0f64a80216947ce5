// Package measure implements the paper's measurement methodology (§3):
//
//  1. select websites (a ranked domain list),
//  2. map domain names — with and without the "www" label — to IP
//     addresses via DNS, excluding IANA special-purpose answers,
//  3. map each address to the covering prefixes and origin ASes seen in
//     a BGP collector RIB, excluding AS_SET paths, and
//  4. validate every (prefix, origin) pair against the RPKI.
//
// The output dataset carries, per domain and per name variant, the
// validation-state mix ("we assign corresponding probabilities to
// domain names"), the CNAME indirection count for CDN classification
// (§4.3), and the prefix sets for the www/apex comparison (Figure 1).
package measure

import (
	"fmt"
	"net/netip"
	"runtime"
	"sort"
	"sync"

	"ripki/internal/alexa"
	"ripki/internal/dns"
	"ripki/internal/httparchive"
	"ripki/internal/netutil"
	"ripki/internal/rib"
	"ripki/internal/rpki/vrp"
)

// Config wires the pipeline to its data sources.
type Config struct {
	// Resolver answers the DNS lookups (a stub client or an in-process
	// registry resolver).
	Resolver dns.Lookuper
	// RIB is the collector routing table (step 3).
	RIB *rib.Table
	// VRPs is the validated ROA payload set (step 4).
	VRPs *vrp.Set
	// HTTPArchive, if non-nil, supplies the independent CDN
	// classification for Figure 3.
	HTTPArchive *httparchive.Classifier
	// BinWidth groups domains for the figures (default 10,000).
	BinWidth int
	// CDNThreshold is the minimum CNAME count for the indirection
	// heuristic (default 2 — "two or more CNAMEs").
	CDNThreshold int
	// DNSSEC, if true, additionally records whether each domain's zone
	// is DNSSEC signed (the paper's stated future-work comparison).
	// The Resolver must implement dns.DNSSECChecker.
	DNSSEC bool
	// Workers bounds parallelism (default: GOMAXPROCS).
	Workers int
}

func (c Config) binWidth() int {
	if c.BinWidth <= 0 {
		return 10000
	}
	return c.BinWidth
}

func (c Config) cdnThreshold() int {
	if c.CDNThreshold <= 0 {
		return 2
	}
	return c.CDNThreshold
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// VariantData is the measurement of one name variant (www or w/o www).
type VariantData struct {
	// Resolved is true when DNS produced at least one answer record.
	Resolved bool
	// NXDomain marks names that do not exist (e.g. a missing www).
	NXDomain bool
	// Excluded marks variants whose every address was special-purpose
	// (the paper's "incorrect DNS answers").
	Excluded bool
	// Addrs counts usable (public) addresses.
	Addrs int
	// SpecialAddrs counts discarded special-purpose answers.
	SpecialAddrs int
	// UnreachableAddrs counts addresses with no covering prefix in the
	// RIB.
	UnreachableAddrs int
	// CNAMEs is the DNS indirection count.
	CNAMEs int
	// Chain is the CNAME chain (for pattern classification).
	Chain []string

	// Pairs counts distinct (prefix, origin) pairs; PairMappings counts
	// them with per-address multiplicity (the paper's headline number).
	Pairs        int
	PairMappings int
	// ValidPairs/InvalidPairs split Pairs by RFC 6811 outcome; the rest
	// are NotFound.
	ValidPairs   int
	InvalidPairs int
	// CoveredPrefixes/TotalPrefixes count distinct covering prefixes,
	// for Table 1's "(1/3)" column.
	CoveredPrefixes int
	TotalPrefixes   int

	// prefixes is the distinct covering prefix set (Figure 1 compares
	// the two variants' sets).
	prefixes []netip.Prefix
}

// NotFoundPairs returns the pairs not covered by any VRP.
func (v VariantData) NotFoundPairs() int { return v.Pairs - v.ValidPairs - v.InvalidPairs }

// StateProb returns the per-domain probability of an RFC 6811 state —
// the paper's fractional representation of heterogeneous deployment.
func (v VariantData) StateProb(s vrp.State) float64 {
	if v.Pairs == 0 {
		return 0
	}
	switch s {
	case vrp.Valid:
		return float64(v.ValidPairs) / float64(v.Pairs)
	case vrp.Invalid:
		return float64(v.InvalidPairs) / float64(v.Pairs)
	default:
		return float64(v.NotFoundPairs()) / float64(v.Pairs)
	}
}

// CoverageProb is the probability a pair is covered by the RPKI at all
// (valid or invalid) — "RPKI-enabled" in Figure 4.
func (v VariantData) CoverageProb() float64 {
	if v.Pairs == 0 {
		return 0
	}
	return float64(v.ValidPairs+v.InvalidPairs) / float64(v.Pairs)
}

// Usable reports whether the variant contributes measurements.
func (v VariantData) Usable() bool { return v.Resolved && !v.Excluded && v.Addrs > 0 }

// DomainResult is one domain's measurement.
type DomainResult struct {
	Rank int
	Name string
	WWW  VariantData
	Apex VariantData

	// CDNByChain is the paper's heuristic: the www variant is reached
	// via >= threshold CNAMEs.
	CDNByChain bool
	// CDNByPattern is the HTTPArchive-style classification;
	// PatternCovered is false outside the classifier's corpus.
	CDNByPattern   bool
	PatternCovered bool
	// EqualPrefixShare is |www ∩ apex| / |www ∪ apex| over covering
	// prefix sets, when both variants resolved (-1 otherwise).
	EqualPrefixShare float64
	// DNSSEC is true when the zone apex publishes a DNSKEY (only
	// collected when Config.DNSSEC is set).
	DNSSEC bool
}

// Totals are the dataset-level headline numbers (§4's first paragraph).
type Totals struct {
	Domains          int
	WWWAddrs         int
	ApexAddrs        int
	WWWPairMappings  int
	ApexPairMappings int
	SpecialAddrs     int
	TotalAnswers     int
	UnreachableAddrs int
}

// Dataset is the pipeline output.
type Dataset struct {
	Results  []DomainResult
	BinWidth int
	Totals   Totals
}

// Run executes the methodology over the ranked list.
func Run(list *alexa.List, cfg Config) (*Dataset, error) {
	if cfg.Resolver == nil || cfg.RIB == nil || cfg.VRPs == nil {
		return nil, fmt.Errorf("measure: Resolver, RIB and VRPs are required")
	}
	entries := list.Entries()
	ds := &Dataset{
		Results:  make([]DomainResult, len(entries)),
		BinWidth: cfg.binWidth(),
	}
	workers := cfg.workers()
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	chunk := (len(entries) + workers - 1) / workers
	if chunk == 0 {
		chunk = 1
	}
	for start := 0; start < len(entries); start += chunk {
		end := start + chunk
		if end > len(entries) {
			end = len(entries)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				r, err := measureDomain(entries[i], cfg, nil)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				ds.Results[i] = r
			}
		}(start, end)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	ds.computeTotals()
	return ds, nil
}

// domainKeys records the mutable inputs one domain's measurement
// depended on: the owner names whose DNS records were consulted (the
// queried names plus every CNAME target traversed) and the covering
// (prefix, origin) prefixes validated against the VRP set. The RIB is
// not recorded because Incremental requires it to stay fixed. The
// incremental dataset inverts these into its dirty-set indexes; a nil
// collector keeps the hot path allocation-free.
type domainKeys struct {
	hosts    []string
	prefixes []netip.Prefix
}

func measureDomain(e alexa.Entry, cfg Config, keys *domainKeys) (DomainResult, error) {
	r := DomainResult{Rank: e.Rank, Name: e.Domain, EqualPrefixShare: -1}
	var err error
	if r.WWW, err = measureVariant("www."+e.Domain, cfg, keys); err != nil {
		return r, err
	}
	if r.Apex, err = measureVariant(e.Domain, cfg, keys); err != nil {
		return r, err
	}
	r.CDNByChain = r.WWW.Usable() && r.WWW.CNAMEs >= cfg.cdnThreshold()
	if cfg.HTTPArchive != nil {
		chain := r.WWW.Chain
		if len(r.Apex.Chain) > len(chain) {
			chain = r.Apex.Chain
		}
		r.CDNByPattern, r.PatternCovered = cfg.HTTPArchive.Classify(e.Rank, chain)
	}
	if r.WWW.Usable() && r.Apex.Usable() {
		r.EqualPrefixShare = jaccard(r.WWW.prefixes, r.Apex.prefixes)
	}
	if cfg.DNSSEC {
		checker, ok := cfg.Resolver.(dns.DNSSECChecker)
		if !ok {
			return r, fmt.Errorf("measure: DNSSEC requested but resolver %T cannot check DNSKEY", cfg.Resolver)
		}
		signed, err := checker.HasDNSKEY(e.Domain)
		if err != nil {
			return r, fmt.Errorf("measure: DNSKEY check for %q: %w", e.Domain, err)
		}
		r.DNSSEC = signed
	}
	return r, nil
}

func measureVariant(name string, cfg Config, keys *domainKeys) (VariantData, error) {
	var v VariantData
	res, err := cfg.Resolver.LookupWeb(name)
	if err != nil {
		return v, fmt.Errorf("measure: resolving %q: %w", name, err)
	}
	if keys != nil {
		// The queried name is recorded even when it does not exist:
		// a record added there later must re-trigger this measurement.
		keys.hosts = append(keys.hosts, dns.CanonicalName(name))
		keys.hosts = append(keys.hosts, res.Chain...)
	}
	if res.NXDomain {
		v.NXDomain = true
		return v, nil
	}
	v.CNAMEs = res.CNAMECount()
	v.Chain = res.Chain
	if len(res.Addrs) == 0 && v.CNAMEs == 0 {
		return v, nil // no data
	}
	v.Resolved = true
	seenPair := make(map[rib.PrefixOrigin]vrp.State, 4)
	seenPrefix := make(map[netip.Prefix]bool, 4)
	for _, a := range res.Addrs {
		if netutil.IsSpecialPurpose(a) {
			v.SpecialAddrs++
			continue
		}
		v.Addrs++
		pairs := cfg.RIB.OriginPairs(a)
		if len(pairs) == 0 {
			if !cfg.RIB.Reachable(a) {
				v.UnreachableAddrs++
			}
			continue
		}
		v.PairMappings += len(pairs)
		for _, po := range pairs {
			if _, ok := seenPair[po]; !ok {
				seenPair[po] = cfg.VRPs.Validate(po.Prefix, po.Origin)
			}
			seenPrefix[po.Prefix] = true
		}
	}
	if v.Addrs == 0 && v.SpecialAddrs > 0 {
		v.Excluded = true
		return v, nil
	}
	v.Pairs = len(seenPair)
	for _, st := range seenPair {
		switch st {
		case vrp.Valid:
			v.ValidPairs++
		case vrp.Invalid:
			v.InvalidPairs++
		}
	}
	v.TotalPrefixes = len(seenPrefix)
	for p := range seenPrefix {
		covered := false
		for po, st := range seenPair {
			if po.Prefix == p && st != vrp.NotFound {
				covered = true
				break
			}
		}
		if covered {
			v.CoveredPrefixes++
		}
		v.prefixes = append(v.prefixes, p)
	}
	sort.Slice(v.prefixes, func(i, j int) bool {
		return netutil.ComparePrefixes(v.prefixes[i], v.prefixes[j]) < 0
	})
	if keys != nil {
		keys.prefixes = append(keys.prefixes, v.prefixes...)
	}
	return v, nil
}

// jaccard computes |a ∩ b| / |a ∪ b| over sorted prefix slices.
func jaccard(a, b []netip.Prefix) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	i, j, inter := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch c := netutil.ComparePrefixes(a[i], b[j]); {
		case c == 0:
			inter++
			i++
			j++
		case c < 0:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

func (ds *Dataset) computeTotals() {
	ds.Totals = Totals{}
	t := &ds.Totals
	t.Domains = len(ds.Results)
	for i := range ds.Results {
		r := &ds.Results[i]
		t.WWWAddrs += r.WWW.Addrs
		t.ApexAddrs += r.Apex.Addrs
		t.WWWPairMappings += r.WWW.PairMappings
		t.ApexPairMappings += r.Apex.PairMappings
		t.SpecialAddrs += r.WWW.SpecialAddrs + r.Apex.SpecialAddrs
		t.TotalAnswers += r.WWW.Addrs + r.Apex.Addrs + r.WWW.SpecialAddrs + r.Apex.SpecialAddrs
		t.UnreachableAddrs += r.WWW.UnreachableAddrs + r.Apex.UnreachableAddrs
	}
}

// ExcludedDNSFraction is the share of answers discarded as
// special-purpose (paper: 0.07%).
func (t Totals) ExcludedDNSFraction() float64 {
	if t.TotalAnswers == 0 {
		return 0
	}
	return float64(t.SpecialAddrs) / float64(t.TotalAnswers)
}

// UnreachableFraction is the share of public addresses not covered by
// any announced prefix (paper: 0.01%).
func (t Totals) UnreachableFraction() float64 {
	total := t.WWWAddrs + t.ApexAddrs
	if total == 0 {
		return 0
	}
	return float64(t.UnreachableAddrs) / float64(total)
}
