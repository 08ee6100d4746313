// Package lru is a count-bounded least-recently-used map: the result cache
// gliderd and the gateway both keep in front of their job execution.
//
// A Cache is deliberately not safe for concurrent use. Its callers already
// hold a lock around the lookup (gliderd checks the cache and its in-flight
// table as one atomic step), so a second lock inside would only add cost.
package lru

import "container/list"

// Cache maps keys to values, holding at most max entries. The zero value is
// not usable; build with New.
type Cache[K comparable, V any] struct {
	max   int
	items map[K]*list.Element
	order *list.List // front = most recently used entry
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache bounded to max entries.
func New[K comparable, V any](max int) *Cache[K, V] {
	return &Cache[K, V]{max: max, items: make(map[K]*list.Element), order: list.New()}
}

// Get returns the value cached under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	el, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add caches v under k as the most recently used entry, overwriting any
// previous value, then evicts least-recently-used entries past the bound.
func (c *Cache[K, V]) Add(k K, v V) {
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		el.Value.(*entry[K, V]).val = v
		return
	}
	c.items[k] = c.order.PushFront(&entry[K, V]{key: k, val: v})
	for len(c.items) > c.max {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.items, el.Value.(*entry[K, V]).key)
	}
}
