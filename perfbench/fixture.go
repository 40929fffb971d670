package main

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"privstats/internal/durable"
	"privstats/internal/paillier"
)

// Fixtures are the inputs that are expensive to make and cheap to load: a
// workload's key pair and, for the stocked workload, its offline stock.
// They are built once per workload through the repo's own fill and
// persistence paths (KeyGen, BitStore.FillParallel, BitStore.SaveFile), kept
// under the state directory, and bound to the key by its fingerprint, so
// set-up time measures loading rather than prime search or stock
// generation. They are not per seed: the stock costs tens of CPU-seconds to
// make, and the seed already picks every table, selection and job spec.

// manifest records what a fixture directory holds.
type manifest struct {
	Bits        int    `json:"bits"`
	Fingerprint string `json:"fingerprint"`
	StockZeros  int    `json:"stock_zeros,omitempty"`
	StockOnes   int    `json:"stock_ones,omitempty"`
}

// fixture is a loaded key plus the path of its stock files, if any.
type fixture struct {
	sk *paillier.PrivateKey
	// stockDir holds <label>.bits and <label>.pk in stockd's state layout.
	stockDir string
	genTime  time.Duration
}

const (
	keyFile      = "key.bin"
	manifestFile = "manifest.json"
)

// loadFixture returns the workload's fixture, building it first when it is
// missing or does not match the wanted shape.
func loadFixture(dir string, w spec) (*fixture, error) {
	f, err := openFixture(dir, w)
	if err == nil {
		return f, nil
	}
	start := time.Now()
	if err := buildFixture(dir, w); err != nil {
		return nil, fmt.Errorf("building %s fixture: %w", w.name, err)
	}
	f, err = openFixture(dir, w)
	if err != nil {
		return nil, err
	}
	f.genTime = time.Since(start)
	return f, nil
}

// openFixture loads the key and checks it, and the stock files' presence,
// against the manifest. The stock's own header carries the fingerprint too;
// stockd's restore path re-checks it when it loads the stock.
func openFixture(dir string, w spec) (*fixture, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	keyBytes, err := os.ReadFile(filepath.Join(dir, keyFile))
	if err != nil {
		return nil, err
	}
	sk := new(paillier.PrivateKey)
	if err := sk.UnmarshalBinary(keyBytes); err != nil {
		return nil, err
	}
	fp, err := paillier.KeyFingerprint(sk.Public())
	if err != nil {
		return nil, err
	}
	if m.Bits != w.bits || m.Fingerprint != hex.EncodeToString(fp[:]) || sk.Public().N.BitLen() != w.bits {
		return nil, errors.New("fixture key does not match its manifest")
	}
	f := &fixture{sk: sk}
	if w.stockOps > 0 {
		zeros, ones := w.stockItems()
		if m.StockZeros != zeros || m.StockOnes != ones {
			return nil, errors.New("fixture stock has the wrong size")
		}
		f.stockDir = filepath.Join(dir, "stock")
		label := stockLabel(sk)
		for _, ext := range []string{".bits", ".pk"} {
			if _, err := os.Stat(filepath.Join(f.stockDir, label+ext)); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

// buildFixture generates a fresh key (and stock) into dir, replacing
// whatever was there. The manifest is written last, so an interrupted build
// is rebuilt on the next run.
func buildFixture(dir string, w spec) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sk, err := paillier.KeyGen(rand.Reader, w.bits)
	if err != nil {
		return err
	}
	keyBytes, err := sk.MarshalBinary()
	if err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, keyFile), keyBytes); err != nil {
		return err
	}
	fp, err := paillier.KeyFingerprint(sk.Public())
	if err != nil {
		return err
	}
	m := manifest{Bits: w.bits, Fingerprint: hex.EncodeToString(fp[:])}
	if w.stockOps > 0 {
		m.StockZeros, m.StockOnes = w.stockItems()
		if err := buildStock(filepath.Join(dir, "stock"), sk, m.StockZeros, m.StockOnes); err != nil {
			return err
		}
	}
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, manifestFile), raw)
}

// buildStock fills an owner-side bit store (the key owner's CRT path, as
// keygen -fill does) and saves it where stockd's restore looks for it.
func buildStock(dir string, sk *paillier.PrivateKey, zeros, ones int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	store := paillier.NewBitStoreOwner(sk)
	if err := store.FillParallel(zeros, ones, runtime.GOMAXPROCS(0)); err != nil {
		return err
	}
	label := stockLabel(sk)
	if err := store.SaveFile(filepath.Join(dir, label+".bits")); err != nil {
		return err
	}
	pkBytes, err := sk.Public().MarshalBinary()
	if err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, label+".pk"), pkBytes)
}

// stockLabel is the name stockd files a key's stock under: the first 8
// bytes of the key fingerprint, in hex.
func stockLabel(sk *paillier.PrivateKey) string {
	fp, err := paillier.KeyFingerprint(sk.Public())
	if err != nil {
		return ""
	}
	return hex.EncodeToString(fp[:8])
}

// writeFile writes data through the repo's crash-safe temp+rename path.
func writeFile(path string, data []byte) error {
	return durable.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// linkStock gives one stockd instance its own state directory holding the
// fixture's stock. Hard links cost nothing, and stockd replaces its state
// files by atomic rename, so the fixture itself is never rewritten.
func linkStock(fixtureDir, stateDir string) error {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return err
	}
	return filepath.WalkDir(fixtureDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		return os.Link(path, filepath.Join(stateDir, d.Name()))
	})
}
