package sparse

// The row-gather kernels shared by the CSR and CSR32 layouts, generic over
// the column-index type (int for CSR, uint16 or uint32 for CSR32). Every
// layout compiles to the exact same operation sequence — that is the
// bit-identity contract between them.
//
// GatherRow4 is the four-lane accumulation behind MulVec and lu's
// S·x: four independent accumulator lanes walk the row in stride-4 steps
// (remainder entries fold into lane 0) and combine as (s0+s1)+(s2+s3). Breaking the single loop-carried FP-add chain is worth
// ~2× on long rows; the lane order is part of the layout contract.
//
// Each product is rounded before it is added: the explicit float64
// conversion forbids the compiler to fuse the multiply and the add into one
// FMA (the Go spec allows fusion otherwise, and arm64, ppc64le, s390x and
// amd64 at GOAMD64=v3 do it). So the sum is the same on every GOARCH, and
// equal to sumRow4's over the products stored first.
func GatherRow4[C int | uint16 | uint32](cols []C, vals, x []float64) float64 {
	var s0, s1, s2, s3 float64
	p := 0
	for ; p+4 <= len(cols); p += 4 {
		s0 += float64(vals[p] * x[cols[p]])
		s1 += float64(vals[p+1] * x[cols[p+1]])
		s2 += float64(vals[p+2] * x[cols[p+2]])
		s3 += float64(vals[p+3] * x[cols[p+3]])
	}
	for ; p < len(cols); p++ {
		s0 += float64(vals[p] * x[cols[p]])
	}
	return (s0 + s1) + (s2 + s3)
}

// sumRow4 is GatherRow4 over a row without values: the terms are z[cols[p]]
// in the same lanes and order. A Pattern caller forms z = w∘x first, so each
// term is the product val·x GatherRow4 forms for the valued matrix whose
// entries in column j all hold w[j], and the two sums agree bit for bit.
func sumRow4[C uint16 | uint32](cols []C, z []float64) float64 {
	var s0, s1, s2, s3 float64
	p := 0
	for ; p+4 <= len(cols); p += 4 {
		s0 += z[cols[p]]
		s1 += z[cols[p+1]]
		s2 += z[cols[p+2]]
		s3 += z[cols[p+3]]
	}
	for ; p < len(cols); p++ {
		s0 += z[cols[p]]
	}
	return (s0 + s1) + (s2 + s3)
}
