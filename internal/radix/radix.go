// Package radix implements a path-compressed binary trie (patricia trie)
// keyed by IP prefixes, with separate roots for IPv4 and IPv6.
//
// The RiPKI pipeline needs two queries that hash maps cannot answer:
//
//   - all prefixes in a routing table that cover a given address
//     (methodology step 3: "For each IP address of a domain name, we
//     extract all covering prefixes"), and
//   - all VRPs that cover a given route prefix (RFC 6811 origin
//     validation).
//
// The trie stores one arbitrary value per canonical prefix. It is not
// safe for concurrent mutation; wrap it in a lock or use one goroutine.
package radix

import (
	"fmt"
	"net/netip"

	"ripki/internal/netutil"
)

// node is a trie node. Internal nodes may carry no value (hasValue
// false); path compression is achieved by storing full prefixes at nodes
// and branching on the first bit after the node's prefix length.
type node[V any] struct {
	prefix   netip.Prefix
	value    V
	hasValue bool
	child    [2]*node[V]
}

// Tree is a prefix-keyed radix tree. The zero value is ready to use.
type Tree[V any] struct {
	root4 *node[V]
	root6 *node[V]
	count int
}

// Len returns the number of prefixes with values in the tree.
func (t *Tree[V]) Len() int { return t.count }

func (t *Tree[V]) rootFor(p netip.Prefix) **node[V] {
	if p.Addr().Is4() {
		return &t.root4
	}
	return &t.root6
}

// commonBits returns the length of the longest common prefix of a and b,
// capped at max. Both addresses must be the same family.
func commonBits(a, b netip.Addr, max int) int {
	ab, bb := a.AsSlice(), b.AsSlice()
	n := 0
	for i := 0; i < len(ab) && n < max; i++ {
		x := ab[i] ^ bb[i]
		if x == 0 {
			n += 8
			continue
		}
		for bit := 7; bit >= 0; bit-- {
			if x&(1<<uint(bit)) != 0 {
				break
			}
			n++
		}
		break
	}
	if n > max {
		n = max
	}
	return n
}

// bitAfter returns the bit of addr at position bits (the first bit after
// a prefix of length bits), or 0 if bits is the full address width.
func bitAfter(addr netip.Addr, bits int) int {
	if bits >= netutil.FamilyBits(addr) {
		return 0
	}
	return netutil.Bit(addr, bits)
}

// Insert stores value under prefix p, replacing any existing value.
// The prefix is canonicalised (masked) first. It returns an error only
// if p is invalid.
func (t *Tree[V]) Insert(p netip.Prefix, value V) error {
	cp, err := netutil.Canonical(p)
	if err != nil {
		return err
	}
	rp := t.rootFor(cp)
	inserted := t.insert(rp, cp, value)
	if inserted {
		t.count++
	}
	return nil
}

// insert returns true if a new valued node was created (false if an
// existing value was replaced).
func (t *Tree[V]) insert(np **node[V], p netip.Prefix, value V) bool {
	n := *np
	if n == nil {
		*np = &node[V]{prefix: p, value: value, hasValue: true}
		return true
	}
	cb := commonBits(n.prefix.Addr(), p.Addr(), minInt(n.prefix.Bits(), p.Bits()))
	switch {
	case cb == n.prefix.Bits() && cb == p.Bits():
		// Same prefix: replace or set value.
		created := !n.hasValue
		n.value, n.hasValue = value, true
		return created
	case cb == n.prefix.Bits():
		// p is longer and inside n: descend.
		b := bitAfter(p.Addr(), n.prefix.Bits())
		return t.insert(&n.child[b], p, value)
	case cb == p.Bits():
		// p is shorter and covers n: p becomes the parent of n.
		nn := &node[V]{prefix: p, value: value, hasValue: true}
		b := bitAfter(n.prefix.Addr(), p.Bits())
		nn.child[b] = n
		*np = nn
		return true
	default:
		// Diverge below cb: create a glue node.
		glue := &node[V]{prefix: netip.PrefixFrom(n.prefix.Addr(), cb).Masked()}
		nb := bitAfter(n.prefix.Addr(), cb)
		pb := bitAfter(p.Addr(), cb)
		glue.child[nb] = n
		glue.child[pb] = &node[V]{prefix: p, value: value, hasValue: true}
		*np = glue
		return true
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Lookup returns the value stored at exactly prefix p.
func (t *Tree[V]) Lookup(p netip.Prefix) (V, bool) {
	var zero V
	cp, err := netutil.Canonical(p)
	if err != nil {
		return zero, false
	}
	n := *t.rootFor(cp)
	for n != nil {
		cb := commonBits(n.prefix.Addr(), cp.Addr(), minInt(n.prefix.Bits(), cp.Bits()))
		if cb < n.prefix.Bits() {
			return zero, false
		}
		if n.prefix.Bits() == cp.Bits() {
			if n.hasValue {
				return n.value, true
			}
			return zero, false
		}
		n = n.child[bitAfter(cp.Addr(), n.prefix.Bits())]
	}
	return zero, false
}

// Delete removes the value at exactly prefix p. It reports whether a
// value was removed. Structural nodes are left in place (the tree only
// grows structurally; this is fine for our workloads, which build once
// and query many times).
func (t *Tree[V]) Delete(p netip.Prefix) bool {
	cp, err := netutil.Canonical(p)
	if err != nil {
		return false
	}
	n := *t.rootFor(cp)
	for n != nil {
		cb := commonBits(n.prefix.Addr(), cp.Addr(), minInt(n.prefix.Bits(), cp.Bits()))
		if cb < n.prefix.Bits() {
			return false
		}
		if n.prefix.Bits() == cp.Bits() {
			if n.hasValue {
				var zero V
				n.value, n.hasValue = zero, false
				t.count--
				return true
			}
			return false
		}
		n = n.child[bitAfter(cp.Addr(), n.prefix.Bits())]
	}
	return false
}

// Covering appends to dst every (prefix, value) pair whose prefix
// contains addr, from shortest to longest, and returns the extended
// slice. This is the "all covering prefixes" query from the paper's
// methodology.
func (t *Tree[V]) Covering(addr netip.Addr, dst []Entry[V]) []Entry[V] {
	var n *node[V]
	if addr.Is4() {
		n = t.root4
	} else if addr.Is6() {
		n = t.root6
	}
	max := 0
	if addr.IsValid() {
		max = netutil.FamilyBits(addr)
	}
	for n != nil {
		cb := commonBits(n.prefix.Addr(), addr, minInt(n.prefix.Bits(), max))
		if cb < n.prefix.Bits() {
			break
		}
		if n.hasValue {
			dst = append(dst, Entry[V]{Prefix: n.prefix, Value: n.value})
		}
		if n.prefix.Bits() >= max {
			break
		}
		n = n.child[bitAfter(addr, n.prefix.Bits())]
	}
	return dst
}

// CoveringPrefix appends every (prefix, value) pair whose prefix covers
// the whole of p (i.e. prefix length <= p.Bits() and containing p), from
// shortest to longest. RFC 6811 matching uses this form.
func (t *Tree[V]) CoveringPrefix(p netip.Prefix, dst []Entry[V]) []Entry[V] {
	cp, err := netutil.Canonical(p)
	if err != nil {
		return dst
	}
	n := *t.rootFor(cp)
	for n != nil {
		if n.prefix.Bits() > cp.Bits() {
			break
		}
		cb := commonBits(n.prefix.Addr(), cp.Addr(), n.prefix.Bits())
		if cb < n.prefix.Bits() {
			break
		}
		if n.hasValue {
			dst = append(dst, Entry[V]{Prefix: n.prefix, Value: n.value})
		}
		if n.prefix.Bits() == cp.Bits() {
			break
		}
		n = n.child[bitAfter(cp.Addr(), n.prefix.Bits())]
	}
	return dst
}

// Entry is a (prefix, value) pair returned by queries.
type Entry[V any] struct {
	Prefix netip.Prefix
	Value  V
}

// Walk visits every valued entry in the tree, IPv4 first then IPv6, in
// lexical prefix order. If fn returns false the walk stops early.
func (t *Tree[V]) Walk(fn func(netip.Prefix, V) bool) {
	if !walk(t.root4, fn) {
		return
	}
	walk(t.root6, fn)
}

func walk[V any](n *node[V], fn func(netip.Prefix, V) bool) bool {
	if n == nil {
		return true
	}
	if n.hasValue {
		if !fn(n.prefix, n.value) {
			return false
		}
	}
	return walk(n.child[0], fn) && walk(n.child[1], fn)
}

// Subtree appends every valued entry covered by p (including p itself),
// in lexical order.
func (t *Tree[V]) Subtree(p netip.Prefix, dst []Entry[V]) []Entry[V] {
	cp, err := netutil.Canonical(p)
	if err != nil {
		return dst
	}
	n := *t.rootFor(cp)
	for n != nil {
		cb := commonBits(n.prefix.Addr(), cp.Addr(), minInt(n.prefix.Bits(), cp.Bits()))
		if n.prefix.Bits() >= cp.Bits() {
			if cb == cp.Bits() {
				walk(n, func(q netip.Prefix, v V) bool {
					dst = append(dst, Entry[V]{Prefix: q, Value: v})
					return true
				})
			}
			return dst
		}
		if cb < n.prefix.Bits() {
			return dst
		}
		n = n.child[bitAfter(cp.Addr(), n.prefix.Bits())]
	}
	return dst
}

// String summarises the tree for debugging.
func (t *Tree[V]) String() string {
	return fmt.Sprintf("radix.Tree(%d prefixes)", t.count)
}
