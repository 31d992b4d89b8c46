package exec

import (
	"context"

	"repro/internal/pool"
)

// Stamps is the dense semijoin's scratch, exposed to the kernel
// differential.
type Stamps = stamps

// StampsAt returns scratch whose next epoch is epoch+1, so tests can drive
// the wraparound clear.
func StampsAt(epoch uint32) *Stamps { return &stamps{epoch: epoch} }

// SemijoinDense is r ⋉ s with the dense stamp filter enabled: a pair
// sharing exactly one column takes it, any other pair the kernel Reduce
// would pick.
func SemijoinDense(ctx context.Context, r, s *Table, st *Stamps, p *pool.Pool) (*Table, error) {
	out, _, err := semijoin(ctx, r, s, st, p)
	return out, err
}

// DenseFits reports whether Reduce may pick the dense kernel for d.
var DenseFits = denseFits
