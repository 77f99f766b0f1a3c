package par

// Scatter is the counting sort every builder of the index places entries
// into rows with: H's patterns, S's two triangles and SlashBurn's
// undirected view. The entries come from the items of a range split into
// contiguous chunks in ascending order (columns, or nodes), one part per
// chunk, and the sort runs in three steps:
//
//  1. each part counts its entries per row (Count), on its own worker;
//  2. Prefix takes the prefix over (row, part): row i starts where row
//     i−1 ends, and within row i part c's entries start where part c−1's
//     end;
//  3. each part puts its entries (Put), on its own worker, walking its
//     items in the order it counted them.
//
// So every row holds its entries in item order, part after part, which is
// the order one part walking the whole range gives: the result is the same
// at any part count. The parts' counts are kept apart — part c's row i at
// c·rows + i — so two workers never write one row's counter.
//
// T is the width of the row pointers: int32 where the entry count is
// bounded by 32-bit indexes (S's triangles), int elsewhere. With one part
// the counts and cursors live in the row pointers themselves, so a serial
// sort allocates rows+2 words and nothing else.
type Scatter[T int32 | int] struct {
	rows, parts int
	ptr         []T // the row pointers: rows+1 of them, final after the puts
	cnt         []T // part c's count in row i at c·rows+i
	cur         []T // after Prefix, part c's next position in row i at c·rows+i
	sum, total  int // Σ cur and the entry count after Prefix, for Filled
}

// NewScatter starts a counting sort of entries into rows for parts parts
// (at least one).
func NewScatter[T int32 | int](rows, parts int) *Scatter[T] {
	if parts <= 1 {
		// Row i counts at i+2; Prefix leaves its cursor at i+1, which
		// moves from the start of the row to its end, row i+1's start.
		ptr := make([]T, rows+2)
		return &Scatter[T]{rows: rows, parts: 1, ptr: ptr[:rows+1], cnt: ptr[2:], cur: ptr[1 : rows+1]}
	}
	table := make([]T, parts*rows)
	return &Scatter[T]{rows: rows, parts: parts, ptr: make([]T, rows+1), cnt: table, cur: table}
}

// Parts returns the number of parts.
func (s *Scatter[T]) Parts() int { return s.parts }

// Count records one entry of part in row i.
func (s *Scatter[T]) Count(part, i int) { s.cnt[part*s.rows+i]++ }

// CountN records k entries of part in row i.
func (s *Scatter[T]) CountN(part, i int, k T) { s.cnt[part*s.rows+i] += k }

// Prefix ends counting: it takes the prefix over (row, part), turning every
// count into the position of its part's first entry in the row. It returns
// the entry count, summed in int, so a caller whose T cannot hold it can
// refuse it before allocating the entries.
func (s *Scatter[T]) Prefix() int {
	run, sum := 0, 0
	for i := 0; i < s.rows; i++ {
		if s.parts > 1 {
			s.ptr[i] = T(run)
		}
		for k := i; k < len(s.cnt); k += s.rows {
			n := int(s.cnt[k])
			s.cur[k] = T(run)
			sum += run
			run += n
		}
	}
	if s.parts > 1 {
		s.ptr[s.rows] = T(run)
	}
	s.sum, s.total = sum, run
	return run
}

// Put returns the position of part's next entry in row i.
func (s *Scatter[T]) Put(part, i int) T {
	k := part*s.rows + i
	p := s.cur[k]
	s.cur[k] = p + 1
	return p
}

// RowPtr returns the rows+1 row pointers. They hold their final values
// once every entry is put.
func (s *Scatter[T]) RowPtr() []T { return s.ptr }

// Filled reports whether as many entries were put as were counted.
func (s *Scatter[T]) Filled() bool {
	sum := 0
	for _, p := range s.cur {
		sum += int(p)
	}
	return sum-s.sum == s.total
}
