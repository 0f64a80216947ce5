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
// The trie stores one arbitrary value per canonical prefix. Clones are
// O(1) and copy-on-write: a clone shares every node with its source
// until one side writes, and a write copies only the nodes on the path
// it touches. A tree is not safe for concurrent mutation, but any number
// of goroutines may query it and Clone it at once while nobody writes.
package radix

import (
	"fmt"
	"net/netip"
	"sync/atomic"

	"ripki/internal/netutil"
)

// node is a trie node. Internal nodes may carry no value (hasValue
// false); path compression is achieved by storing full prefixes at nodes
// and branching on the first bit after the node's prefix length. gen is
// the generation of the tree that created the node: a tree edits a node
// in place only when the generations match.
type node[V any] struct {
	prefix   netip.Prefix
	value    V
	hasValue bool
	gen      uint64
	child    [2]*node[V]
}

// Tree is a prefix-keyed radix tree. The zero value is ready to use.
// A Tree must not be copied by value; use Clone.
type Tree[V any] struct {
	root4 *node[V]
	root6 *node[V]
	count int
	gen   atomic.Uint64
}

// generations hands out tree generations. Every Clone draws two, so no
// two trees that share a node ever hold the same generation.
var generations atomic.Uint64

// Clone returns a tree holding the same entries in O(1). Both trees
// take fresh generations, so every node they share is copied before
// either side writes it. Values are shared, not copied: a caller whose
// values are slices or maps must not modify them in place. Clone may
// run concurrently with queries and other Clones, not with writes.
func (t *Tree[V]) Clone() *Tree[V] {
	c := &Tree[V]{root4: t.root4, root6: t.root6, count: t.count}
	c.gen.Store(generations.Add(1))
	t.gen.Store(generations.Add(1))
	return c
}

// own makes *np a node of this tree's generation, copying it if another
// tree may still share it, and returns it. The slot np must itself
// belong to this tree: a root field or the child array of an owned node.
func (t *Tree[V]) own(np **node[V]) *node[V] {
	n := *np
	if gen := t.gen.Load(); n.gen != gen {
		c := *n
		c.gen = gen
		n = &c
		*np = n
	}
	return n
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
	gen := t.gen.Load()
	leaf := func() *node[V] { return &node[V]{prefix: cp, value: value, hasValue: true, gen: gen} }
	np := t.rootFor(cp)
	for {
		n := *np
		if n == nil {
			*np = leaf()
			t.count++
			return nil
		}
		cb := commonBits(n.prefix.Addr(), cp.Addr(), minInt(n.prefix.Bits(), cp.Bits()))
		switch {
		case cb == n.prefix.Bits() && cb == cp.Bits():
			// Same prefix: replace or set value.
			n = t.own(np)
			if !n.hasValue {
				t.count++
			}
			n.value, n.hasValue = value, true
			return nil
		case cb == n.prefix.Bits():
			// cp is longer and inside n: descend.
			n = t.own(np)
			np = &n.child[bitAfter(cp.Addr(), n.prefix.Bits())]
		case cb == cp.Bits():
			// cp is shorter and covers n: cp becomes the parent of n.
			nn := leaf()
			nn.child[bitAfter(n.prefix.Addr(), cp.Bits())] = n
			*np = nn
			t.count++
			return nil
		default:
			// Diverge below cb: create a glue node.
			glue := &node[V]{prefix: netip.PrefixFrom(n.prefix.Addr(), cb).Masked(), gen: gen}
			glue.child[bitAfter(n.prefix.Addr(), cb)] = n
			glue.child[bitAfter(cp.Addr(), cb)] = leaf()
			*np = glue
			t.count++
			return nil
		}
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
	if n := t.find(cp); n != nil && n.hasValue {
		return n.value, true
	}
	return zero, false
}

// find returns the node at exactly the canonical prefix cp, valued or
// not, or nil.
func (t *Tree[V]) find(cp netip.Prefix) *node[V] {
	n := *t.rootFor(cp)
	for n != nil {
		cb := commonBits(n.prefix.Addr(), cp.Addr(), minInt(n.prefix.Bits(), cp.Bits()))
		if cb < n.prefix.Bits() {
			return nil
		}
		if n.prefix.Bits() == cp.Bits() {
			return n
		}
		n = n.child[bitAfter(cp.Addr(), n.prefix.Bits())]
	}
	return nil
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
	if n := t.find(cp); n == nil || !n.hasValue {
		return false
	}
	// The value is there: take ownership of the path down to it.
	np := t.rootFor(cp)
	n := t.own(np)
	for n.prefix.Bits() != cp.Bits() {
		n = t.own(&n.child[bitAfter(cp.Addr(), n.prefix.Bits())])
	}
	var zero V
	n.value, n.hasValue = zero, false
	t.count--
	return true
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
