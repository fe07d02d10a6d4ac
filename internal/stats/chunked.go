package stats

// ChunkLen is the element count of one Chunked storage chunk: 256 one-
// millisecond buckets, so a metric row chunk is 16 KiB and an energy
// chunk 2 KiB, and a trimmed window of a few hundred buckets holds less
// than twice its length.
const ChunkLen = 256

// Chunked is an array of T indexed by absolute position and stored in
// fixed-size chunks. Growing it never copies what it holds, so a series
// that grows one bucket at a time allocates about its final size once,
// and Release frees a prefix a whole chunk at a time, keeping the last
// released chunk to reuse for the next growth: a series written at its
// head and released at its tail settles on a fixed set of chunks.
type Chunked[T any] struct {
	// chunks[i] holds positions [(first+i)·ChunkLen, (first+i+1)·ChunkLen).
	chunks [][]T
	first  int
	// n is one past the highest position grown to.
	n int
	// floor is the lowest position that may still be grown to or read;
	// a Chunked holding nothing restarts its storage at floor's chunk.
	floor int
	spare []T // a released chunk, zeroed
}

// Len returns one past the highest position grown to.
func (c *Chunked[T]) Len() int { return c.n }

// Held returns how many positions the held chunks span.
func (c *Chunked[T]) Held() int { return len(c.chunks) * ChunkLen }

// Start returns the first position of the first held chunk.
func (c *Chunked[T]) Start() int { return c.first * ChunkLen }

// Grow makes position i, at or above the release floor, exist; positions
// it adds read as zero.
//
//pclint:hotpath
func (c *Chunked[T]) Grow(i int) {
	if i < c.n {
		return
	}
	c.n = i + 1
	if len(c.chunks) == 0 {
		c.first = c.floor / ChunkLen
	}
	for (c.first+len(c.chunks))*ChunkLen <= i {
		chunk := c.spare
		c.spare = nil
		if chunk == nil {
			chunk = make([]T, ChunkLen) //pclint:allow hotalloc first-use growth: one chunk per 256 buckets of new sim time, reused once released
		}
		c.chunks = append(c.chunks, chunk) //pclint:allow hotalloc first-use growth: the chunk index grows by one slice header per 256 buckets
	}
}

// At returns a pointer to position i, which must lie in [Start, Len).
//
//pclint:hotpath
func (c *Chunked[T]) At(i int) *T {
	return &c.chunks[i/ChunkLen-c.first][i%ChunkLen]
}

// Release raises the release floor to f and frees every chunk lying wholly
// below it, keeping one for reuse. A floor at or below the current one
// changes nothing.
func (c *Chunked[T]) Release(f int) {
	if f <= c.floor {
		return
	}
	c.floor = f
	dead := min(f/ChunkLen-c.first, len(c.chunks))
	if dead <= 0 {
		return
	}
	clear(c.chunks[dead-1])
	c.spare = c.chunks[dead-1]
	n := copy(c.chunks, c.chunks[dead:])
	clear(c.chunks[n:])
	c.chunks = c.chunks[:n]
	c.first += dead
}
