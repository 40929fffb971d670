package main

import (
	"math/big"
	"net"
	"sync/atomic"
	"time"

	"privstats/internal/homomorphic"
)

// The probes below time calls into the program's public interfaces from the
// benchmark's side of each boundary: the client's key (encrypt, decrypt),
// its encryptor pool (stock draws) and its transport connection (bytes,
// send wait, reply wait). They change no program code. Each probe forwards
// every optional capability of the value it wraps, so a traced run takes
// the same fast paths as an untraced one.

// epoch anchors the monotonic nanosecond stamps the probes store in atomics.
var epoch = time.Now()

func mono() int64 { return int64(time.Since(epoch)) }

// probe accumulates one client's layer timings. Timing happens only while
// on is set, so one deployment can run untraced and traced ops side by side;
// the encryption count is kept always because a job's encryptions happen
// inside the gateway, out of sight of the op that caused them.
type probe struct {
	on atomic.Bool

	encNanos  atomic.Int64
	encTimed  atomic.Int64 // encryptions timed
	encRows   atomic.Int64 // encryptions made, timed or not
	decNanos  atomic.Int64
	decTimed  atomic.Int64
	sendNanos atomic.Int64
	dialNanos atomic.Int64
}

// reset zeroes the accumulators (not the on switch) at the start of an op.
func (p *probe) reset() {
	p.encNanos.Store(0)
	p.encTimed.Store(0)
	p.encRows.Store(0)
	p.decNanos.Store(0)
	p.decTimed.Store(0)
	p.sendNanos.Store(0)
	p.dialNanos.Store(0)
}

func (p *probe) timeEnc(start time.Time) {
	if !start.IsZero() {
		p.encNanos.Add(int64(time.Since(start)))
		p.encTimed.Add(1)
	}
	p.encRows.Add(1)
}

// begin returns the call's start time while timing, and the zero time
// otherwise.
func (p *probe) begin() time.Time {
	if p.on.Load() {
		return time.Now()
	}
	return time.Time{}
}

// timedKey times Decrypt. PublicKey passes through unwrapped, so the
// scheme's own capabilities (MultiScalarFolder, FixedBased) stay visible.
type timedKey struct {
	homomorphic.PrivateKey
	p *probe
}

func (k timedKey) Decrypt(c homomorphic.Ciphertext) (*big.Int, error) {
	start := k.p.begin()
	m, err := k.PrivateKey.Decrypt(c)
	if !start.IsZero() {
		k.p.decNanos.Add(int64(time.Since(start)))
		k.p.decTimed.Add(1)
	}
	return m, err
}

// timedSelfKey adds the SelfEncryptor capability when the wrapped key has
// it: the protocol client type-asserts for it to take the owner's CRT
// encryption path.
type timedSelfKey struct {
	timedKey
	self homomorphic.SelfEncryptor
}

func (k timedSelfKey) EncryptSelf(m *big.Int) (homomorphic.Ciphertext, error) {
	start := k.p.begin()
	ct, err := k.self.EncryptSelf(m)
	k.p.timeEnc(start)
	return ct, err
}

// probeKey wraps sk, keeping exactly the optional capabilities sk has.
func probeKey(sk homomorphic.PrivateKey, p *probe) homomorphic.PrivateKey {
	tk := timedKey{PrivateKey: sk, p: p}
	if se, ok := sk.(homomorphic.SelfEncryptor); ok {
		return timedSelfKey{timedKey: tk, self: se}
	}
	return tk
}

// timedPool times stock draws, the stocked client's whole encryption cost.
type timedPool struct {
	homomorphic.EncryptorPool
	p *probe
}

func (tp timedPool) DrawBit(bit uint) (homomorphic.Ciphertext, error) {
	start := tp.p.begin()
	ct, err := tp.EncryptorPool.DrawBit(bit)
	tp.p.timeEnc(start)
	return ct, err
}

// connMeter counts the bytes one client moves over its protocol
// connections and, while its probe is on, how long writes blocked and when
// the last write and read finished.
type connMeter struct {
	p          *probe
	up, down   atomic.Int64
	firstWrite atomic.Int64 // mono() stamp
	lastWrite  atomic.Int64 // mono() stamp
	lastRead   atomic.Int64 // mono() stamp
}

func (m *connMeter) reset() {
	m.up.Store(0)
	m.down.Store(0)
	m.firstWrite.Store(0)
	m.lastWrite.Store(0)
	m.lastRead.Store(0)
}

// upload is the time from the client's first write (the hello) to its last
// (the end of the index vector): every draw, frame build and write of the
// upload falls inside it.
func (m *connMeter) upload() time.Duration {
	f, w := m.firstWrite.Load(), m.lastWrite.Load()
	if f == 0 || w < f {
		return 0
	}
	return time.Duration(w - f)
}

// replyWait is the time from the client's last write (the end of its
// upload) to its last read (the reply fully received).
func (m *connMeter) replyWait() time.Duration {
	w, r := m.lastWrite.Load(), m.lastRead.Load()
	if w == 0 || r < w {
		return 0
	}
	return time.Duration(r - w)
}

// meteredConn is a net.Conn that reports to a connMeter. Embedding keeps
// the deadline methods the wire layer arms its timeouts through.
type meteredConn struct {
	net.Conn
	m *connMeter
}

func (c meteredConn) Write(b []byte) (int, error) {
	start := c.m.p.begin()
	if !start.IsZero() {
		c.m.firstWrite.CompareAndSwap(0, int64(start.Sub(epoch)))
	}
	n, err := c.Conn.Write(b)
	c.m.up.Add(int64(n))
	if !start.IsZero() {
		c.m.p.sendNanos.Add(int64(time.Since(start)))
		c.m.lastWrite.Store(mono())
	}
	return n, err
}

func (c meteredConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.m.down.Add(int64(n))
		if c.m.p.on.Load() {
			c.m.lastRead.Store(mono())
		}
	}
	return n, err
}
