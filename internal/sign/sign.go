// Package sign implements the MIDAS trust layer: each extension instance is
// signed by its originator, and a receiver only weaves extensions whose
// signatures verify against its trust store (§3.2, "Addressing security").
// ed25519 over the canonical encoding of the payload stands in for the Java
// code-signing infrastructure.
package sign

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
)

// Errors returned by verification.
var (
	// ErrUntrustedSigner means the signer's key is not in the trust store.
	ErrUntrustedSigner = errors.New("sign: untrusted signer")
	// ErrBadSignature means the signature does not verify.
	ErrBadSignature = errors.New("sign: invalid signature")
)

// Signer holds an identity keypair used by an extension base (or peer) to
// sign the extensions it distributes.
type Signer struct {
	Name string
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

// NewSigner generates a fresh identity.
func NewSigner(name string) (*Signer, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("sign: generate key: %w", err)
	}
	return &Signer{Name: name, priv: priv, pub: pub}, nil
}

// PublicKey returns the signer's public key.
func (s *Signer) PublicKey() ed25519.PublicKey { return s.pub }

// Fingerprint returns a short hex identifier of the public key.
func (s *Signer) Fingerprint() string { return Fingerprint(s.pub) }

// Sign produces a detached signature over payload.
func (s *Signer) Sign(payload []byte) Signature {
	return Signature{
		SignerName: s.Name,
		PublicKey:  append([]byte(nil), s.pub...),
		Sig:        ed25519.Sign(s.priv, payload),
	}
}

// Signature is a detached signature plus the claimed signer identity.
type Signature struct {
	SignerName string
	PublicKey  []byte
	Sig        []byte
}

// Fingerprint returns a short hex identifier for a public key.
func Fingerprint(pub ed25519.PublicKey) string {
	if len(pub) < 8 {
		return hex.EncodeToString(pub)
	}
	return hex.EncodeToString(pub[:8])
}

// TrustStore is a receiver's set of trusted originator keys. Each mobile node
// defines its own preferences and trusted entities.
type TrustStore struct {
	mu      sync.RWMutex
	trusted map[string]ed25519.PublicKey // fingerprint -> key
	names   map[string]string            // fingerprint -> display name
}

// NewTrustStore returns an empty trust store (nothing trusted).
func NewTrustStore() *TrustStore {
	return &TrustStore{
		trusted: make(map[string]ed25519.PublicKey),
		names:   make(map[string]string),
	}
}

// Trust adds a public key to the store.
func (t *TrustStore) Trust(name string, pub ed25519.PublicKey) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fp := Fingerprint(pub)
	t.trusted[fp] = append(ed25519.PublicKey(nil), pub...)
	t.names[fp] = name
}

// Trusted reports whether pub is in the store.
func (t *TrustStore) Trusted(pub ed25519.PublicKey) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	stored, ok := t.trusted[Fingerprint(pub)]
	return ok && stored.Equal(pub)
}

// Verify checks that sig is a valid signature over payload by a trusted key.
func (t *TrustStore) Verify(payload []byte, sig Signature) error {
	if len(sig.PublicKey) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: bad key size %d", ErrBadSignature, len(sig.PublicKey))
	}
	pub := ed25519.PublicKey(sig.PublicKey)
	if !t.Trusted(pub) {
		return fmt.Errorf("%w: %s (%s)", ErrUntrustedSigner, sig.SignerName, Fingerprint(pub))
	}
	if !ed25519.Verify(pub, payload, sig.Sig) {
		return fmt.Errorf("%w: signer %s", ErrBadSignature, sig.SignerName)
	}
	return nil
}
