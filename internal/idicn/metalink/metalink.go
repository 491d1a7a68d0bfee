// Package metalink implements the content-metadata layer of idICN (paper
// §6.1): a Metalink-style XML download description (after RFC 5854/6249)
// carrying cryptographic hashes, the publisher's signature and key, and
// mirror locations, plus the HTTP header embedding that lets
// Metalink-capable clients and proxies verify authenticity and discover
// mirrors while legacy clients simply ignore the extra headers.
package metalink

import (
	"crypto/ed25519"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/base64"
	"encoding/hex"
	"encoding/xml"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"idicn/internal/idicn/names"
)

// HTTP headers used to embed metadata in responses. Digest follows RFC
// 3230's instance-digest form; Link rel="duplicate" follows RFC 6249.
const (
	HeaderDigest    = "Digest"
	HeaderSignature = "X-Idicn-Signature"
	HeaderPublisher = "X-Idicn-Publisher"
	HeaderName      = "X-Idicn-Name"
	HeaderLink      = "Link"
)

// Description is a Metalink document: a set of described files.
type Description struct {
	XMLName xml.Name `xml:"metalink"`
	Files   []File   `xml:"file"`
}

// File describes one named content object.
type File struct {
	Name      string      `xml:"name,attr"`
	Size      int64       `xml:"size,omitempty"`
	Hashes    []Hash      `xml:"hash"`
	Signature *Signature  `xml:"signature,omitempty"`
	Publisher *Publisher  `xml:"publisher,omitempty"`
	URLs      []MirrorURL `xml:"url"`
}

// Hash is a content digest, hex encoded.
type Hash struct {
	Type  string `xml:"type,attr"`
	Value string `xml:",chardata"`
}

// Signature is the publisher's content signature, base64 encoded.
type Signature struct {
	Type  string `xml:"type,attr"`
	Value string `xml:",chardata"`
}

// Publisher carries the publisher's public key, base64 encoded, so clients
// can check it against the P component of the name.
type Publisher struct {
	KeyType string `xml:"keytype,attr"`
	Key     string `xml:",chardata"`
}

// MirrorURL is a location the content can be fetched from.
type MirrorURL struct {
	Priority int    `xml:"priority,attr,omitempty"`
	Location string `xml:",chardata"`
}

// BuildFile assembles the metadata for signed content published under a
// name: SHA-256 digest, Ed25519 signature, the publisher key, and mirrors.
func BuildFile(n names.Name, pub ed25519.PublicKey, content, sig []byte, mirrors []string) File {
	return buildFile(n, pub, sha256.Sum256(content), int64(len(content)), sig, mirrors)
}

// buildFile is BuildFile for content whose digest and size are already
// known.
func buildFile(n names.Name, pub ed25519.PublicKey, digest [sha256.Size]byte, size int64, sig []byte, mirrors []string) File {
	urls := make([]MirrorURL, 0, len(mirrors))
	for i, m := range mirrors {
		urls = append(urls, MirrorURL{Priority: i + 1, Location: m})
	}
	return File{
		Name: n.String(),
		Size: size,
		Hashes: []Hash{
			{Type: "sha-256", Value: hex.EncodeToString(digest[:])},
		},
		Signature: &Signature{Type: "ed25519", Value: base64.StdEncoding.EncodeToString(sig)},
		Publisher: &Publisher{KeyType: "ed25519", Key: base64.StdEncoding.EncodeToString(pub)},
		URLs:      urls,
	}
}

// Marshal renders a Metalink document for the given files.
func Marshal(files ...File) ([]byte, error) {
	out, err := xml.MarshalIndent(Description{Files: files}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("metalink: marshal: %w", err)
	}
	return append([]byte(xml.Header), out...), nil
}

// Unmarshal parses a Metalink document.
func Unmarshal(data []byte) (Description, error) {
	var d Description
	if err := xml.Unmarshal(data, &d); err != nil {
		return Description{}, fmt.Errorf("metalink: unmarshal: %w", err)
	}
	return d, nil
}

// SetHeaders embeds a file's metadata into HTTP response headers: the
// instance digest, signature, publisher key, name, and one Link
// rel="duplicate" per mirror.
func SetHeaders(h http.Header, f File) {
	for _, hash := range f.Hashes {
		if hash.Type == "sha-256" {
			if raw, err := hex.DecodeString(hash.Value); err == nil {
				h.Set(HeaderDigest, "SHA-256="+base64.StdEncoding.EncodeToString(raw))
			}
		}
	}
	if f.Signature != nil {
		h.Set(HeaderSignature, f.Signature.Type+"="+f.Signature.Value)
	}
	if f.Publisher != nil {
		h.Set(HeaderPublisher, f.Publisher.KeyType+"="+f.Publisher.Key)
	}
	if f.Name != "" {
		h.Set(HeaderName, f.Name)
	}
	h.Del(HeaderLink)
	for _, u := range f.URLs {
		h.Add(HeaderLink, fmt.Sprintf("<%s>; rel=duplicate; pri=%d", u.Location, u.Priority))
	}
}

// Verified is the result of parsing and checking response metadata.
type Verified struct {
	Name      names.Name
	PublicKey ed25519.PublicKey
	Signature []byte
	Mirrors   []string
	// Digest is the SHA-256 of the verified body, computed once by
	// VerifyResponse and the value both of its body checks ran against.
	Digest [sha256.Size]byte
	// Size is the length of the verified body in bytes.
	Size int64
}

// File is BuildFile for the body this metadata was verified against,
// without hashing it again: the result equals BuildFile(v.Name,
// v.PublicKey, body, v.Signature, v.Mirrors).
func (v Verified) File() File {
	return buildFile(v.Name, v.PublicKey, v.Digest, v.Size, v.Signature, v.Mirrors)
}

// Errors from header verification.
var (
	ErrMissingMetadata = errors.New("metalink: response carries no idICN metadata")
	ErrDigestMismatch  = errors.New("metalink: content digest mismatch")
)

// VerifyResponse parses idICN metadata from response headers and runs the
// full self-certification check against the body: digest, key-to-name
// binding, and content signature. The body is hashed once, with or without
// a Digest header. It returns the parsed identity and that digest on
// success.
func VerifyResponse(h http.Header, body []byte) (Verified, error) {
	nameHdr := h.Get(HeaderName)
	sigHdr := h.Get(HeaderSignature)
	pubHdr := h.Get(HeaderPublisher)
	if nameHdr == "" || sigHdr == "" || pubHdr == "" {
		return Verified{}, ErrMissingMetadata
	}
	n, err := names.Parse(nameHdr)
	if err != nil {
		return Verified{}, fmt.Errorf("metalink: bad name header: %w", err)
	}
	sig, err := decodeTyped(sigHdr, "ed25519")
	if err != nil {
		return Verified{}, fmt.Errorf("metalink: bad signature header: %w", err)
	}
	pubRaw, err := decodeTyped(pubHdr, "ed25519")
	if err != nil {
		return Verified{}, fmt.Errorf("metalink: bad publisher header: %w", err)
	}
	if len(pubRaw) != ed25519.PublicKeySize {
		return Verified{}, fmt.Errorf("metalink: publisher key has %d bytes", len(pubRaw))
	}
	// The one pass over the body: both checks below run against this digest.
	digest := sha256.Sum256(body)
	if d := h.Get(HeaderDigest); d != "" {
		want, err := decodeTyped(d, "SHA-256")
		if err != nil {
			return Verified{}, fmt.Errorf("metalink: bad digest header: %w", err)
		}
		if subtle.ConstantTimeCompare(want, digest[:]) != 1 {
			return Verified{}, ErrDigestMismatch
		}
	}
	pub := ed25519.PublicKey(pubRaw)
	if err := names.VerifyDigest(n, pub, digest, sig); err != nil {
		return Verified{}, err
	}
	return Verified{
		Name:      n,
		PublicKey: pub,
		Signature: sig,
		Mirrors:   ParseMirrors(h),
		Digest:    digest,
		Size:      int64(len(body)),
	}, nil
}

// ParseMirrors extracts rel=duplicate targets from Link headers, in header
// order.
func ParseMirrors(h http.Header) []string {
	var out []string
	for _, link := range h.Values(HeaderLink) {
		for _, part := range strings.Split(link, ",") {
			part = strings.TrimSpace(part)
			if !strings.Contains(part, "rel=duplicate") {
				continue
			}
			open := strings.IndexByte(part, '<')
			close := strings.IndexByte(part, '>')
			if open < 0 || close <= open+1 {
				continue
			}
			out = append(out, part[open+1:close])
		}
	}
	return out
}

func decodeTyped(v, wantType string) ([]byte, error) {
	i := strings.IndexByte(v, '=')
	if i < 0 {
		return nil, fmt.Errorf("no algorithm prefix in %q", v)
	}
	if !strings.EqualFold(v[:i], wantType) {
		return nil, fmt.Errorf("algorithm %q, want %q", v[:i], wantType)
	}
	raw, err := base64.StdEncoding.DecodeString(v[i+1:])
	if err != nil {
		return nil, err
	}
	return raw, nil
}
