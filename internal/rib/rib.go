// Package rib implements a BGP Routing Information Base in the style of
// a route collector's view: every peer's path for every prefix.
//
// The measurement pipeline uses it for methodology step (3): "we take
// dumps of the active tables of the RIPE RIS route servers. For each IP
// address of a domain name, we extract all covering prefixes and derive
// the origin AS from the AS path (i.e., the right most ASN in the AS
// path). Entries with an AS_SET are excluded."
package rib

import (
	"fmt"
	"io"
	"net/netip"
	"sort"
	"sync"
	"time"

	"ripki/internal/bgp"
	"ripki/internal/mrt"
	"ripki/internal/netutil"
	"ripki/internal/radix"
)

// Route is one peer's path to a prefix.
type Route struct {
	Prefix     netip.Prefix
	PeerIndex  uint16
	Path       []bgp.Segment
	NextHop    netip.Addr
	Originated time.Time
}

// PrefixOrigin is the unit of analysis in the paper: a routed prefix
// together with one origin AS observed for it.
type PrefixOrigin struct {
	Prefix netip.Prefix
	Origin uint32
}

// Table is a collector RIB. It is safe for concurrent use.
type Table struct {
	mu       sync.RWMutex
	peers    []mrt.Peer
	peerIdx  map[peerKey]uint16
	tree     radix.Tree[map[uint16]*Route]
	routes   int
	prefixes int
}

type peerKey struct {
	asn uint32
	id  netip.Addr
}

// New creates an empty table.
func New() *Table {
	return &Table{peerIdx: make(map[peerKey]uint16)}
}

// AddPeer registers a collector peer and returns its index. Registering
// the same (ASN, BGP ID) again returns the existing index.
func (t *Table) AddPeer(p mrt.Peer) uint16 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addPeerLocked(p)
}

func (t *Table) addPeerLocked(p mrt.Peer) uint16 {
	k := peerKey{asn: p.ASN, id: p.BGPID}
	if i, ok := t.peerIdx[k]; ok {
		return i
	}
	i := uint16(len(t.peers))
	t.peers = append(t.peers, p)
	t.peerIdx[k] = i
	return i
}

// Peers returns a copy of the registered peer table.
func (t *Table) Peers() []mrt.Peer {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]mrt.Peer, len(t.peers))
	copy(out, t.peers)
	return out
}

// Len returns the number of distinct prefixes in the table.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.prefixes
}

// Routes returns the total number of (prefix, peer) paths.
func (t *Table) Routes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.routes
}

// Insert stores or replaces the route from the given peer.
func (t *Table) Insert(r Route) error {
	cp, err := netutil.Canonical(r.Prefix)
	if err != nil {
		return fmt.Errorf("rib: %w", err)
	}
	r.Prefix = cp
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(r.PeerIndex) >= len(t.peers) {
		return fmt.Errorf("rib: unknown peer index %d", r.PeerIndex)
	}
	m, ok := t.tree.Lookup(cp)
	if !ok || m == nil {
		m = make(map[uint16]*Route, 2)
		if err := t.tree.Insert(cp, m); err != nil {
			return err
		}
		t.prefixes++
	}
	if _, exists := m[r.PeerIndex]; !exists {
		t.routes++
	}
	rr := r
	m[r.PeerIndex] = &rr
	return nil
}

// Withdraw removes the route for prefix from the given peer. It reports
// whether a route was removed.
func (t *Table) Withdraw(peer uint16, prefix netip.Prefix) bool {
	cp, err := netutil.Canonical(prefix)
	if err != nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.tree.Lookup(cp)
	if !ok || m == nil {
		return false
	}
	if _, exists := m[peer]; !exists {
		return false
	}
	delete(m, peer)
	t.routes--
	if len(m) == 0 {
		t.tree.Delete(cp)
		t.prefixes--
	}
	return true
}

// Apply ingests one collector route event (registering the peer as
// needed).
func (t *Table) Apply(ev bgp.RouteEvent) error {
	if ev.Withdraw {
		t.WithdrawEvent(ev)
		return nil
	}
	t.mu.Lock()
	idx := t.addPeerLocked(mrt.Peer{BGPID: ev.PeerID, Addr: ev.PeerID, ASN: ev.PeerAS})
	t.mu.Unlock()
	return t.Insert(Route{
		Prefix:    ev.Prefix,
		PeerIndex: idx,
		Path:      ev.Path,
		NextHop:   ev.NextHop,
	})
}

// WithdrawEvent removes the route named by a collector event
// (registering the peer as needed) and reports whether a route was
// actually removed — Apply's withdraw path, with the outcome exposed
// for callers that count drops.
func (t *Table) WithdrawEvent(ev bgp.RouteEvent) bool {
	t.mu.Lock()
	idx := t.addPeerLocked(mrt.Peer{BGPID: ev.PeerID, Addr: ev.PeerID, ASN: ev.PeerAS})
	t.mu.Unlock()
	return t.Withdraw(idx, ev.Prefix)
}

// Covering returns all routed prefixes containing addr, shortest first.
func (t *Table) Covering(addr netip.Addr) []netip.Prefix {
	t.mu.RLock()
	defer t.mu.RUnlock()
	entries := t.tree.Covering(addr, nil)
	out := make([]netip.Prefix, 0, len(entries))
	for _, e := range entries {
		if len(e.Value) > 0 {
			out = append(out, e.Prefix)
		}
	}
	return out
}

// Reachable reports whether at least one routed prefix covers addr —
// the paper's "reachable from our BGP vantage points".
func (t *Table) Reachable(addr netip.Addr) bool {
	return len(t.Covering(addr)) > 0
}

// OriginPairs returns every (covering prefix, origin AS) pair for addr,
// deduplicated, with AS_SET-terminated paths excluded. This is the
// paper's unit of measurement.
func (t *Table) OriginPairs(addr netip.Addr) []PrefixOrigin {
	t.mu.RLock()
	defer t.mu.RUnlock()
	entries := t.tree.Covering(addr, nil)
	var out []PrefixOrigin
	seen := make(map[PrefixOrigin]bool, 4)
	for _, e := range entries {
		for _, r := range e.Value {
			origin, ok := bgp.OriginAS(r.Path)
			if !ok {
				continue // AS_SET or empty path: excluded
			}
			po := PrefixOrigin{Prefix: e.Prefix, Origin: origin}
			if !seen[po] {
				seen[po] = true
				out = append(out, po)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if c := netutil.ComparePrefixes(out[i].Prefix, out[j].Prefix); c != 0 {
			return c < 0
		}
		return out[i].Origin < out[j].Origin
	})
	return out
}

// Snapshot returns a copy of every route, grouped by prefix in lexical
// order (peers ascending within a prefix). Unlike WalkRoutes it holds no
// lock when it returns, so callers may mutate the table while iterating
// the result — the revalidation path depends on this.
func (t *Table) Snapshot() []Route {
	t.mu.RLock()
	out := make([]Route, 0, t.routes)
	t.mu.RUnlock()
	t.WalkRoutes(func(r Route) bool {
		out = append(out, r)
		return true
	})
	return out
}

// WalkRoutes visits every route, grouped by prefix in lexical order.
func (t *Table) WalkRoutes(fn func(Route) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.tree.Walk(func(p netip.Prefix, m map[uint16]*Route) bool {
		idxs := make([]int, 0, len(m))
		for i := range m {
			idxs = append(idxs, int(i))
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			if !fn(*m[uint16(i)]) {
				return false
			}
		}
		return true
	})
}

// DumpMRT writes the table as a TABLE_DUMP_V2 stream.
func (t *Table) DumpMRT(w io.Writer, collectorID netip.Addr, view string, stamp time.Time) error {
	mw := mrt.NewWriter(w, stamp)
	if err := mw.WritePeerIndexTable(collectorID, view, t.Peers()); err != nil {
		return err
	}
	var outer error
	t.mu.RLock()
	t.tree.Walk(func(p netip.Prefix, m map[uint16]*Route) bool {
		idxs := make([]int, 0, len(m))
		for i := range m {
			idxs = append(idxs, int(i))
		}
		sort.Ints(idxs)
		entries := make([]mrt.RIBEntry, 0, len(m))
		for _, i := range idxs {
			r := m[uint16(i)]
			entries = append(entries, mrt.RIBEntry{
				PeerIndex:  r.PeerIndex,
				Originated: r.Originated,
				Attrs: bgp.PathAttrs{
					Origin:  bgp.OriginIGP,
					ASPath:  r.Path,
					NextHop: r.NextHop,
				},
			})
		}
		if err := mw.WriteRIB(p, entries); err != nil {
			outer = err
			return false
		}
		return true
	})
	t.mu.RUnlock()
	if outer != nil {
		return outer
	}
	return mw.Flush()
}

// LoadMRT builds a table from a TABLE_DUMP_V2 stream.
func LoadMRT(r io.Reader) (*Table, error) {
	t := New()
	mr := mrt.NewReader(r)
	for {
		rec, err := mr.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		switch rr := rec.(type) {
		case *mrt.PeerIndexTable:
			for _, p := range rr.Peers {
				t.AddPeer(p)
			}
		case *mrt.RIBRecord:
			for _, e := range rr.Entries {
				if err := t.Insert(Route{
					Prefix:     rr.Prefix,
					PeerIndex:  e.PeerIndex,
					Path:       e.Attrs.ASPath,
					NextHop:    e.Attrs.NextHop,
					Originated: e.Originated,
				}); err != nil {
					return nil, err
				}
			}
		}
	}
}
