package lu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"bepi/internal/binio"
	"bepi/internal/dense"
)

// Binary serialization of BlockLU factors, used when persisting a
// preprocessed BePI index:
//
//	magic    uint32 'BLU1'
//	nblocks  int64
//	offsets  (nblocks+1) × int64
//	data     Σ sizeᵢ² × float64 (packed LU factors, block order)

const blockLUMagic = 0x424c5531

// WriteTo serializes the factors. It implements io.WriterTo.
func (b *BlockLU) WriteTo(w io.Writer) (int64, error) {
	bw := binio.NewWriter(w)
	bw.U32(blockLUMagic)
	bw.Int(len(b.factors))
	binio.WriteInts(bw, b.offsets)
	for _, f := range b.factors {
		binio.WriteFloats(bw, f.Data)
	}
	return bw.Close()
}

// ReadBlockLU deserializes factors written by WriteTo, refusing a factor
// entry that is not finite. It reads exactly the bytes the factors occupy
// (no read-ahead), so the data can be embedded in a concatenated stream.
// The blocks share one backing array, read in one run.
func ReadBlockLU(r io.Reader) (*BlockLU, error) {
	br := binio.NewReader(r)
	var head [4 + 8]byte
	if err := br.Full(head[:]); err != nil {
		return nil, fmt.Errorf("lu: reading BlockLU header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(head[0:]); magic != blockLUMagic {
		return nil, fmt.Errorf("lu: bad BlockLU magic %#x", magic)
	}
	nb := int(int64(binary.LittleEndian.Uint64(head[4:])))
	if nb < 0 {
		return nil, fmt.Errorf("lu: corrupt block count %d", nb)
	}
	offsets, err := br.Ints(nb + 1)
	if err != nil {
		return nil, fmt.Errorf("lu: reading offsets: %w", err)
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("lu: corrupt offsets start %d", offsets[0])
	}
	// A dense block of dimension 2^20 would be 8 TiB; anything close is a
	// corrupt stream. Capping the running total as well keeps it from
	// overflowing before the reader refuses a length its input cannot back.
	const maxBlockDim, maxEntries = 1 << 20, 1 << 50
	total := 0
	for i := 0; i < nb; i++ {
		size := offsets[i+1] - offsets[i]
		if size <= 0 || size > maxBlockDim {
			return nil, fmt.Errorf("lu: corrupt block size %d", size)
		}
		if total += size * size; total > maxEntries {
			return nil, fmt.Errorf("lu: corrupt offsets: over %d factor entries", maxEntries)
		}
	}
	data, err := br.Floats(total)
	if err != nil {
		return nil, fmt.Errorf("lu: reading %d blocks of %d entries: %w", nb, total, err)
	}
	if !allFinite(data) {
		return nil, errors.New("lu: the factors hold a value that is not finite")
	}
	blocks := make([]dense.Matrix, nb)
	factors := make([]*dense.Matrix, nb)
	for i := range blocks {
		size := offsets[i+1] - offsets[i]
		blocks[i] = dense.Matrix{R: size, C: size, Data: data[: size*size : size*size]}
		data = data[size*size:]
		factors[i] = &blocks[i]
	}
	return &BlockLU{offsets: offsets, factors: factors}, nil
}
