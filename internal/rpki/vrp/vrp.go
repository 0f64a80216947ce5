// Package vrp implements Validated ROA Payloads and RFC 6811 prefix
// origin validation.
//
// A VRP is the (prefix, maxLength, origin AS) triple extracted from a
// cryptographically valid ROA. Given the full VRP set, any BGP route
// (prefix, origin AS) is classified into one of three states:
//
//   - NotFound: no VRP covers the route's prefix,
//   - Valid: some covering VRP matches the origin AS and the route's
//     prefix length does not exceed that VRP's maxLength,
//   - Invalid: at least one VRP covers the prefix but none matches.
//
// These are exactly the three states the paper reports in Figure 2.
package vrp

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"

	"ripki/internal/netutil"
	"ripki/internal/radix"
)

// State is an RFC 6811 origin-validation outcome.
type State uint8

const (
	// NotFound means no VRP covers the announced prefix.
	NotFound State = iota
	// Valid means a covering VRP authorises the origin AS at this length.
	Valid
	// Invalid means the prefix is covered but no VRP matches.
	Invalid
)

// String returns the conventional lower-case state name.
func (s State) String() string {
	switch s {
	case NotFound:
		return "not found"
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// VRP is a validated ROA payload.
type VRP struct {
	Prefix    netip.Prefix
	MaxLength int
	ASN       uint32
}

// String renders the VRP in "prefix-maxlen => ASN" form.
func (v VRP) String() string {
	return fmt.Sprintf("%v-%d => AS%d", v.Prefix, v.MaxLength, v.ASN)
}

// Set is a queryable collection of VRPs over a copy-on-write radix
// tree. Queries take no lock: any number of goroutines may query a set,
// or Clone it, while nobody writes it. Add and Remove must not race
// with anything; a goroutine that needs to write while others read
// works on its own Clone, which costs O(1).
type Set struct {
	tree  *radix.Tree[[]VRP]
	count int
}

// NewSet returns an empty VRP set.
func NewSet() *Set { return &Set{tree: new(radix.Tree[[]VRP])} }

// FromVRPs builds a set from a slice. Insertion order does not matter:
// two sets holding the same triples are indistinguishable (All is
// sorted, Diff is order-free), so callers may feed map-iteration order.
func FromVRPs(vs []VRP) (*Set, error) {
	s := NewSet()
	for _, v := range vs {
		if err := s.Add(v); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Add inserts a VRP. Duplicate triples are ignored.
func (s *Set) Add(v VRP) error {
	cp, err := netutil.Canonical(v.Prefix)
	if err != nil {
		return fmt.Errorf("vrp: %w", err)
	}
	if v.MaxLength < cp.Bits() || v.MaxLength > netutil.FamilyBits(cp.Addr()) {
		return fmt.Errorf("vrp: maxLength %d out of range for %v", v.MaxLength, cp)
	}
	v.Prefix = cp
	existing, _ := s.tree.Lookup(cp)
	if slices.Contains(existing, v) {
		return nil
	}
	// A clone may share existing's backing array, so never append into
	// its spare capacity.
	if err := s.tree.Insert(cp, append(slices.Clip(existing), v)); err != nil {
		return err
	}
	s.count++
	return nil
}

// Remove deletes a VRP, reporting whether it was present. The radix
// node is dropped when its last payload goes, so covering queries never
// see a prefix with no VRPs behind it.
func (s *Set) Remove(v VRP) bool {
	cp, err := netutil.Canonical(v.Prefix)
	if err != nil {
		return false
	}
	v.Prefix = cp
	existing, ok := s.tree.Lookup(cp)
	if !ok {
		return false
	}
	for i, e := range existing {
		if e != v {
			continue
		}
		if len(existing) == 1 {
			s.tree.Delete(cp)
		} else {
			rest := make([]VRP, 0, len(existing)-1)
			rest = append(rest, existing[:i]...)
			rest = append(rest, existing[i+1:]...)
			if err := s.tree.Insert(cp, rest); err != nil {
				return false
			}
		}
		s.count--
		return true
	}
	return false
}

// Contains reports whether the set holds exactly v (after prefix
// canonicalisation).
func (s *Set) Contains(v VRP) bool {
	cp, err := netutil.Canonical(v.Prefix)
	if err != nil {
		return false
	}
	v.Prefix = cp
	existing, _ := s.tree.Lookup(cp)
	return slices.Contains(existing, v)
}

// Clone returns an independent copy in O(1): the original and the
// clone can be mutated without affecting each other, and each write
// copies only the tree path it touches. Clone may be called from many
// goroutines at once on a set nobody is writing.
func (s *Set) Clone() *Set {
	return &Set{tree: s.tree.Clone(), count: s.count}
}

// Len returns the number of distinct VRPs.
func (s *Set) Len() int { return s.count }

// Validate classifies the route (prefix, originAS) per RFC 6811.
func (s *Set) Validate(prefix netip.Prefix, originAS uint32) State {
	st, _ := s.ValidateExplain(prefix, originAS)
	return st
}

// ValidateExplain is Validate plus the list of covering VRPs considered,
// for diagnostics and the looking-glass tools.
func (s *Set) ValidateExplain(prefix netip.Prefix, originAS uint32) (State, []VRP) {
	cp, err := netutil.Canonical(prefix)
	if err != nil {
		return NotFound, nil
	}
	entries := s.tree.CoveringPrefix(cp, nil)
	if len(entries) == 0 {
		return NotFound, nil
	}
	var covering []VRP
	state := Invalid
	for _, e := range entries {
		for _, v := range e.Value {
			covering = append(covering, v)
			if v.ASN == originAS && originAS != 0 && cp.Bits() <= v.MaxLength {
				state = Valid
			}
		}
	}
	return state, covering
}

// All returns every VRP, sorted by prefix then maxLength then ASN.
// The slice is freshly allocated.
func (s *Set) All() []VRP {
	out := make([]VRP, 0, s.count)
	s.tree.Walk(func(_ netip.Prefix, vs []VRP) bool {
		out = append(out, vs...)
		return true
	})
	slices.SortFunc(out, Compare)
	return out
}

// HasASN reports whether any VRP in the set names asn as its origin —
// used by the CDN study to ask "does this AS appear in the RPKI at
// all?".
func (s *Set) HasASN(asn uint32) bool {
	found := false
	s.tree.Walk(func(_ netip.Prefix, vs []VRP) bool {
		for _, v := range vs {
			if v.ASN == asn {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// Compare orders two VRPs by (prefix, maxLength, ASN) — the canonical
// total order All reports in. It is exported so every other VRP
// ordering in the tree (the sim engine's truth bookkeeping, the RTR
// cache's delta records) sorts with the same comparator and cannot
// drift from All.
func Compare(a, b VRP) int {
	if c := netutil.ComparePrefixes(a.Prefix, b.Prefix); c != 0 {
		return c
	}
	if c := cmp.Compare(a.MaxLength, b.MaxLength); c != 0 {
		return c
	}
	return cmp.Compare(a.ASN, b.ASN)
}

// Diff computes the VRPs to announce and withdraw to transform old into
// s. It is used by the RTR cache to build incremental updates.
func (s *Set) Diff(old *Set) (announce, withdraw []VRP) {
	cur := s.All()
	prev := old.All()
	curSet := make(map[VRP]bool, len(cur))
	for _, v := range cur {
		curSet[v] = true
	}
	prevSet := make(map[VRP]bool, len(prev))
	for _, v := range prev {
		prevSet[v] = true
	}
	for _, v := range cur {
		if !prevSet[v] {
			announce = append(announce, v)
		}
	}
	for _, v := range prev {
		if !curSet[v] {
			withdraw = append(withdraw, v)
		}
	}
	return announce, withdraw
}
