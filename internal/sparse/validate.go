package sparse

import "fmt"

// Validate checks the structural CSR invariants that NewCSR cannot repair:
// rowPtr has length rows+1, starts at 0, is non-decreasing, its last entry
// equals len(col), and every column index lies in [0, cols). Within-row
// ordering is not required (NewCSR sorts and merges). The check is O(nnz)
// and allocation-free. It returns nil for well-formed input.
func Validate(rows, cols int, rowPtr, col []int) error {
	return validate(rows, cols, rowPtr, col, false)
}

// validateCompact is the check of the compact index types used by CSR32 and
// Pattern.
// Unlike Validate it also requires strictly increasing columns within each
// row: CSR32 is immutable, so its constructors must be handed the final
// sorted, duplicate-free layout.
func validateCompact[P int32 | int64, C uint16 | uint32](rows, cols int, rowPtr []P, col []C) error {
	if int64(cols) > maxIndex32 {
		return fmt.Errorf("sparse: cols %d exceeds uint32 index range", cols)
	}
	return validate(rows, cols, rowPtr, col, true)
}

// validate is the one structural check behind Validate and validateCompact,
// at any index width; sorted additionally requires each row's
// columns to be strictly increasing (the invariant every CSR kernel and
// Compact rely on, which only NewCSR's repair pass may assume away).
func validate[P int | int32 | int64, C int | uint16 | uint32](rows, cols int, rowPtr []P, col []C, sorted bool) error {
	if rows < 0 || cols < 0 {
		return fmt.Errorf("sparse: negative dimension %dx%d", rows, cols)
	}
	if len(rowPtr) != rows+1 {
		return fmt.Errorf("sparse: rowPtr length %d want %d", len(rowPtr), rows+1)
	}
	if rowPtr[0] != 0 {
		return fmt.Errorf("sparse: rowPtr[0] = %d want 0", rowPtr[0])
	}
	for i := 0; i < rows; i++ {
		if rowPtr[i+1] < rowPtr[i] {
			return fmt.Errorf("sparse: rowPtr decreases at row %d: %d -> %d", i, rowPtr[i], rowPtr[i+1])
		}
	}
	if int64(rowPtr[rows]) != int64(len(col)) {
		return fmt.Errorf("sparse: rowPtr[%d] = %d want len(col) = %d", rows, rowPtr[rows], len(col))
	}
	for i := 0; i < rows; i++ {
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			c := col[p]
			if int64(c) < 0 || int64(c) >= int64(cols) {
				return fmt.Errorf("sparse: column index %d in row %d out of range [0,%d)", c, i, cols)
			}
			if sorted && p > rowPtr[i] && col[p-1] >= c {
				return fmt.Errorf("sparse: row %d columns not strictly increasing at position %d", i, p)
			}
		}
	}
	return nil
}
