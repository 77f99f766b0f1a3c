package sparse

// The row-gather kernels shared by the CSR and CSR32 layouts, generic over
// the column-index type (int for CSR, uint32 for CSR32). Both layouts
// compile to the exact same operation sequence — that is the bit-identity
// contract between them.
//
// gatherRow4 is the four-lane accumulation behind MulVec and AddMulVec: four
// independent accumulator lanes walk the row in stride-4 steps (remainder
// entries fold into lane 0) and combine as (s0+s1)+(s2+s3). Breaking the single loop-carried FP-add chain is worth
// ~2× on long rows; the lane order is part of the layout contract.
func gatherRow4[C int | uint32](cols []C, vals, x []float64) float64 {
	var s0, s1, s2, s3 float64
	p := 0
	for ; p+4 <= len(cols); p += 4 {
		s0 += vals[p] * x[cols[p]]
		s1 += vals[p+1] * x[cols[p+1]]
		s2 += vals[p+2] * x[cols[p+2]]
		s3 += vals[p+3] * x[cols[p+3]]
	}
	for ; p < len(cols); p++ {
		s0 += vals[p] * x[cols[p]]
	}
	return (s0 + s1) + (s2 + s3)
}
