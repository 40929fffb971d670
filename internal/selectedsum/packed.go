package selectedsum

import (
	"fmt"
	"math/big"

	"privstats/internal/homomorphic"
)

// Packed is the weighted index vector behind a packed group-by — the
// paper's §2 remark that the index vector may carry integer weights, not
// just bits. Entry i is 2^(B·slots[i]) for a selected row and 0 for an
// unselected one (slots[i] = -1). The unchanged server fold Π E(w_i)^{x_i}
// then sums every group into its own B-bit slot of one plaintext, so one
// uplink answers every slot. The caller picks the width B so no slot can carry into
// the next, and checks that the top slot fits the plaintext space (jobs uses
// B = 64 + bits.Len(rows): a slot holds at most rows·(2⁶⁴−1)).
//
// Entries are always fresh encryptions. Online, each one encrypts its
// weight through the key owner's SelfEncryptor capability when the key has
// it, the public key otherwise. With a Pool, every entry is a preprocessed
// E(0) — an unselected row as drawn, a selected row in slot g as
// Add(U_g, E(0)) with U_g one fresh encryption of 2^(B·g) per Packed
// value. Multiplying by a fresh E(0) makes that an exactly distributed fresh
// encryption, and the pool is never asked for a one-bit.
//
// A Packed is a VectorSource for one query (its retries included); it is
// not safe for concurrent use.
type Packed struct {
	pk      homomorphic.PublicKey
	self    homomorphic.SelfEncryptor // nil when the key has no owner fast path
	pool    homomorphic.EncryptorPool
	slots   []int
	weights []*big.Int               // weights[g] = 2^(B·g)
	units   []homomorphic.Ciphertext // pooled U_g, encrypted on first use
	zero    *big.Int
}

// NewPacked returns the packed vector for slots (one entry per row, -1 for
// an unselected row) at slot width B = width bits. pool, when non-nil,
// supplies the preprocessed encryptions of 0.
func NewPacked(sk homomorphic.PrivateKey, pool homomorphic.EncryptorPool, slots []int, width uint) (*Packed, error) {
	if sk == nil {
		return nil, fmt.Errorf("selectedsum: nil private key")
	}
	if width == 0 {
		return nil, fmt.Errorf("selectedsum: zero slot width")
	}
	top := -1
	for i, g := range slots {
		if g < -1 {
			return nil, fmt.Errorf("selectedsum: row %d has slot %d", i, g)
		}
		if g > top {
			top = g
		}
	}
	p := &Packed{pk: sk.PublicKey(), pool: pool, slots: slots, zero: new(big.Int)}
	p.self, _ = sk.(homomorphic.SelfEncryptor)
	p.weights = make([]*big.Int, top+1)
	for g := range p.weights {
		p.weights[g] = new(big.Int).Lsh(big.NewInt(1), width*uint(g))
	}
	if pool != nil {
		p.units = make([]homomorphic.Ciphertext, top+1)
	}
	return p, nil
}

// Len implements VectorSource.
func (p *Packed) Len() int { return len(p.slots) }

// EncryptAt implements VectorSource.
func (p *Packed) EncryptAt(i int) (homomorphic.Ciphertext, error) {
	g := p.slots[i]
	if p.pool == nil {
		if g < 0 {
			return p.encrypt(p.zero)
		}
		return p.encrypt(p.weights[g])
	}
	z, err := p.pool.DrawBit(0)
	if err != nil || g < 0 {
		return z, err
	}
	if p.units[g] == nil {
		if p.units[g], err = p.encrypt(p.weights[g]); err != nil {
			return nil, err
		}
	}
	return p.pk.Add(p.units[g], z)
}

// encrypt is one online encryption, through the owner's fast path when the
// key exposes it.
func (p *Packed) encrypt(m *big.Int) (homomorphic.Ciphertext, error) {
	if p.self != nil {
		return p.self.EncryptSelf(m)
	}
	return p.pk.Encrypt(m)
}
