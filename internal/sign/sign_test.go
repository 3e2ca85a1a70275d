package sign

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestSignVerify(t *testing.T) {
	signer, err := NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	store := NewTrustStore()
	store.Trust("hall-1", signer.PublicKey())

	payload := []byte("extension descriptor bytes")
	sig := signer.Sign(payload)
	if err := store.Verify(payload, sig); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestUntrustedSignerRejected(t *testing.T) {
	mallory, _ := NewSigner("mallory")
	store := NewTrustStore()
	payload := []byte("evil extension")
	err := store.Verify(payload, mallory.Sign(payload))
	if !errors.Is(err, ErrUntrustedSigner) {
		t.Fatalf("want untrusted, got %v", err)
	}
}

func TestTamperedPayloadRejected(t *testing.T) {
	signer, _ := NewSigner("hall-1")
	store := NewTrustStore()
	store.Trust("hall-1", signer.PublicKey())
	sig := signer.Sign([]byte("original"))
	err := store.Verify([]byte("tampered"), sig)
	if !errors.Is(err, ErrBadSignature) {
		t.Fatalf("want bad signature, got %v", err)
	}
}

func TestTamperedSignatureRejected(t *testing.T) {
	signer, _ := NewSigner("hall-1")
	store := NewTrustStore()
	store.Trust("hall-1", signer.PublicKey())
	payload := []byte("payload")
	sig := signer.Sign(payload)
	sig.Sig[0] ^= 0xff
	if err := store.Verify(payload, sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("want bad signature, got %v", err)
	}
}

func TestForgedKeyRejected(t *testing.T) {
	signer, _ := NewSigner("hall-1")
	mallory, _ := NewSigner("mallory")
	store := NewTrustStore()
	store.Trust("hall-1", signer.PublicKey())
	payload := []byte("payload")
	// Mallory signs but claims the trusted name.
	sig := mallory.Sign(payload)
	sig.SignerName = "hall-1"
	if err := store.Verify(payload, sig); !errors.Is(err, ErrUntrustedSigner) {
		t.Fatalf("want untrusted, got %v", err)
	}
	// Short/garbage key.
	sig.PublicKey = []byte{1, 2, 3}
	if err := store.Verify(payload, sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("want bad signature, got %v", err)
	}
}

func TestVerifyArbitraryPayloads(t *testing.T) {
	signer, _ := NewSigner("s")
	store := NewTrustStore()
	store.Trust("s", signer.PublicKey())
	if err := quick.Check(func(payload []byte) bool {
		return store.Verify(payload, signer.Sign(payload)) == nil
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFingerprintStable(t *testing.T) {
	signer, _ := NewSigner("s")
	if signer.Fingerprint() != Fingerprint(signer.PublicKey()) {
		t.Error("fingerprints disagree")
	}
	if len(signer.Fingerprint()) != 16 {
		t.Errorf("fingerprint length = %d", len(signer.Fingerprint()))
	}
}
