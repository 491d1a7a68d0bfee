// Package names implements idICN's DONA-style self-certifying flat naming
// scheme (paper §6.1): names of the form L.P, where P is a cryptographic
// hash of the publisher's public key and L is a label the publisher assigns
// to the content. The name intrinsically binds the consumer's intent to the
// publisher: anyone holding the content, its signature, and the publisher's
// public key can verify provenance without trusting the party that delivered
// it (CDN, local cache, "or a stranger on the bus").
//
// For backward compatibility with DNS, P is encoded as a base32 label (52
// characters for SHA-256, within DNS's 63-character label limit — the
// paper's footnote 6 notes this rules out longer digests), and names embed
// into the DNS namespace as L.P.idicn.org.
package names

import (
	"crypto/ed25519"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/base32"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Domain is the DNS suffix under which idICN names are published.
const Domain = "idicn.org"

// keyEncoding encodes key hashes as lowercase unpadded base32, which is
// valid inside a DNS label.
var keyEncoding = base32.StdEncoding.WithPadding(base32.NoPadding)

// KeyHash is P: the SHA-256 digest of a publisher's Ed25519 public key.
type KeyHash [sha256.Size]byte

// HashKey computes P for a public key.
func HashKey(pub ed25519.PublicKey) KeyHash {
	return sha256.Sum256(pub)
}

// String returns the DNS-label encoding of the hash (52 base32 characters).
func (k KeyHash) String() string {
	return strings.ToLower(keyEncoding.EncodeToString(k[:]))
}

// ParseKeyHash decodes a base32 key-hash label.
func ParseKeyHash(s string) (KeyHash, error) {
	var k KeyHash
	raw, err := keyEncoding.DecodeString(strings.ToUpper(s))
	if err != nil {
		return k, fmt.Errorf("names: bad key hash %q: %v", s, err)
	}
	if len(raw) != sha256.Size {
		return k, fmt.Errorf("names: key hash %q has %d bytes, want %d", s, len(raw), sha256.Size)
	}
	copy(k[:], raw)
	return k, nil
}

// Matches reports whether the hash commits to the given public key, in
// constant time.
func (k KeyHash) Matches(pub ed25519.PublicKey) bool {
	h := HashKey(pub)
	return subtle.ConstantTimeCompare(k[:], h[:]) == 1
}

// Name is a self-certifying content name L.P.
type Name struct {
	Label string
	Key   KeyHash
}

// errors returned by Parse and the verification helpers.
var (
	ErrBadLabel     = errors.New("names: invalid label")
	ErrKeyMismatch  = errors.New("names: public key does not match name")
	ErrBadSignature = errors.New("names: content signature invalid")
)

// ValidLabel reports whether s is usable as L: a non-empty DNS label of at
// most 63 characters made of lowercase letters, digits, and interior
// hyphens.
func ValidLabel(s string) bool {
	if len(s) == 0 || len(s) > 63 {
		return false
	}
	if s[0] == '-' || s[len(s)-1] == '-' {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-' {
			continue
		}
		return false
	}
	return true
}

// New builds a name from a label and the publisher's public key.
func New(label string, pub ed25519.PublicKey) (Name, error) {
	if !ValidLabel(label) {
		return Name{}, fmt.Errorf("%w: %q", ErrBadLabel, label)
	}
	return Name{Label: label, Key: HashKey(pub)}, nil
}

// String returns the flat form "L.P".
func (n Name) String() string { return n.Label + "." + n.Key.String() }

// DNS returns the DNS-compatible form "L.P.idicn.org".
func (n Name) DNS() string { return n.String() + "." + Domain }

// Parse accepts either the flat form L.P or the DNS form L.P.idicn.org.
func Parse(s string) (Name, error) {
	s = strings.TrimSuffix(strings.ToLower(s), ".")
	s = strings.TrimSuffix(s, "."+Domain)
	i := strings.IndexByte(s, '.')
	if i < 0 {
		return Name{}, fmt.Errorf("names: %q is not of the form L.P", s)
	}
	label, keyPart := s[:i], s[i+1:]
	if !ValidLabel(label) {
		return Name{}, fmt.Errorf("%w: %q", ErrBadLabel, label)
	}
	if strings.Contains(keyPart, ".") {
		return Name{}, fmt.Errorf("names: %q has extra components", s)
	}
	key, err := ParseKeyHash(keyPart)
	if err != nil {
		return Name{}, err
	}
	return Name{Label: label, Key: key}, nil
}

// contentPayload is the canonical byte string signed to bind content to a
// name: a domain-separation tag, the label, and the content digest.
func contentPayload(label string, digest [sha256.Size]byte) []byte {
	payload := make([]byte, 0, 64+len(label))
	payload = append(payload, "idicn content v1\n"...)
	payload = append(payload, label...)
	payload = append(payload, '\n')
	payload = append(payload, digest[:]...)
	return payload
}

// VerifyContent checks the full self-certification chain for content
// claimed to carry name n: the public key must hash to n.Key, and sig must
// be a valid signature by that key over the (label, content) binding.
func VerifyContent(n Name, pub ed25519.PublicKey, content, sig []byte) error {
	return VerifyDigest(n, pub, sha256.Sum256(content), sig)
}

// VerifyDigest is VerifyContent for a caller that already holds the
// content's SHA-256 digest, so a body checked against a Digest header and
// against its signature is hashed once. The caller vouches that digest was
// computed over the bytes it is about to trust.
func VerifyDigest(n Name, pub ed25519.PublicKey, digest [sha256.Size]byte, sig []byte) error {
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("names: bad public key length %d", len(pub))
	}
	if !n.Key.Matches(pub) {
		return ErrKeyMismatch
	}
	if !ed25519.Verify(pub, contentPayload(n.Label, digest), sig) {
		return ErrBadSignature
	}
	return nil
}

// Principal is a publisher: an Ed25519 key pair whose public-key hash is
// the P component of every name it mints.
type Principal struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewPrincipal generates a publisher key pair from the given entropy source
// (nil uses crypto/rand).
func NewPrincipal(rand io.Reader) (*Principal, error) {
	pub, priv, err := ed25519.GenerateKey(rand)
	if err != nil {
		return nil, fmt.Errorf("names: generating key: %w", err)
	}
	return &Principal{pub: pub, priv: priv}, nil
}

// PrincipalFromSeed derives a deterministic publisher from a 32-byte seed,
// for tests and reproducible examples.
func PrincipalFromSeed(seed []byte) (*Principal, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("names: seed must be %d bytes", ed25519.SeedSize)
	}
	priv := ed25519.NewKeyFromSeed(seed)
	return &Principal{pub: priv.Public().(ed25519.PublicKey), priv: priv}, nil
}

// PublicKey returns the publisher's public key.
func (p *Principal) PublicKey() ed25519.PublicKey { return p.pub }

// KeyHash returns P for this publisher.
func (p *Principal) KeyHash() KeyHash { return HashKey(p.pub) }

// Name mints the name L.P for a label.
func (p *Principal) Name(label string) (Name, error) {
	return New(label, p.pub)
}

// SignContent produces the signature binding content to the label under
// this publisher's key.
func (p *Principal) SignContent(label string, content []byte) []byte {
	return ed25519.Sign(p.priv, contentPayload(label, sha256.Sum256(content)))
}

// Sign signs an arbitrary payload (used by the resolver's registration
// protocol).
func (p *Principal) Sign(payload []byte) []byte {
	return ed25519.Sign(p.priv, payload)
}
