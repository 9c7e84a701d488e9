package em

import "container/list"

// lruCache models the M/B block frames of internal memory with
// least-recently-used replacement.
type lruCache struct {
	cap   int
	order *list.List // front = most recently used; values are BlockID
	pos   map[BlockID]*list.Element
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:   capacity,
		order: list.New(),
		pos:   make(map[BlockID]*list.Element, capacity),
	}
}

// touch marks id as most recently used. It reports whether the block was
// already resident (a cache hit).
func (c *lruCache) touch(id BlockID) bool {
	if el, ok := c.pos[id]; ok {
		c.order.MoveToFront(el)
		return true
	}
	if c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.pos, oldest.Value.(BlockID))
	}
	c.pos[id] = c.order.PushFront(id)
	return false
}

func (c *lruCache) evict(id BlockID) {
	if el, ok := c.pos[id]; ok {
		c.order.Remove(el)
		delete(c.pos, id)
	}
}

func (c *lruCache) clear() {
	c.order.Init()
	clear(c.pos)
}

func (c *lruCache) len() int { return c.order.Len() }
