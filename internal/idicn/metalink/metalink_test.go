package metalink

import (
	"crypto/ed25519"
	"crypto/sha256"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"idicn/internal/idicn/names"
)

func testSetup(t testing.TB) (*names.Principal, names.Name, []byte, []byte) {
	t.Helper()
	seed := make([]byte, ed25519.SeedSize)
	seed[0] = 0xaa
	p, err := names.PrincipalFromSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("hello, information-centric world")
	n, err := p.Name("greeting")
	if err != nil {
		t.Fatal(err)
	}
	sig := p.SignContent("greeting", content)
	return p, n, content, sig
}

func TestXMLRoundTrip(t *testing.T) {
	p, n, content, sig := testSetup(t)
	f := BuildFile(n, p.PublicKey(), content, sig, []string{"http://a.example/x", "http://b.example/x"})
	doc, err := Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), "<metalink>") {
		t.Fatalf("document missing root element:\n%s", doc)
	}
	back, err := Unmarshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Files) != 1 {
		t.Fatalf("got %d files", len(back.Files))
	}
	got := back.Files[0]
	if got.Name != f.Name || got.Size != f.Size {
		t.Errorf("file identity mismatch: %+v", got)
	}
	if len(got.Hashes) != 1 || got.Hashes[0] != f.Hashes[0] {
		t.Errorf("hashes mismatch: %+v", got.Hashes)
	}
	if got.Signature == nil || got.Signature.Value != f.Signature.Value {
		t.Errorf("signature mismatch")
	}
	if len(got.URLs) != 2 || got.URLs[0].Location != "http://a.example/x" || got.URLs[0].Priority != 1 {
		t.Errorf("urls mismatch: %+v", got.URLs)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("not xml at all <<<")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestHeaderRoundTripAndVerify(t *testing.T) {
	p, n, content, sig := testSetup(t)
	f := BuildFile(n, p.PublicKey(), content, sig, []string{"http://mirror.example/m"})
	h := make(http.Header)
	SetHeaders(h, f)
	if h.Get(HeaderDigest) == "" || h.Get(HeaderSignature) == "" || h.Get(HeaderPublisher) == "" {
		t.Fatalf("headers incomplete: %v", h)
	}
	v, err := VerifyResponse(h, content)
	if err != nil {
		t.Fatalf("VerifyResponse: %v", err)
	}
	if v.Name != n {
		t.Errorf("verified name %v, want %v", v.Name, n)
	}
	if len(v.Mirrors) != 1 || v.Mirrors[0] != "http://mirror.example/m" {
		t.Errorf("mirrors = %v", v.Mirrors)
	}
}

func TestVerifyResponseRejectsTampering(t *testing.T) {
	p, n, content, sig := testSetup(t)
	f := BuildFile(n, p.PublicKey(), content, sig, nil)
	h := make(http.Header)
	SetHeaders(h, f)

	if _, err := VerifyResponse(h, append([]byte("x"), content...)); err == nil {
		t.Error("tampered body accepted")
	}

	// Strip metadata entirely.
	empty := make(http.Header)
	if _, err := VerifyResponse(empty, content); err != ErrMissingMetadata {
		t.Errorf("missing metadata: err = %v", err)
	}

	// Wrong signature algorithm label.
	h2 := make(http.Header)
	SetHeaders(h2, f)
	h2.Set(HeaderSignature, "rsa=AAAA")
	if _, err := VerifyResponse(h2, content); err == nil {
		t.Error("wrong signature algorithm accepted")
	}

	// Substituted publisher key (hash mismatch with P).
	other, err := names.NewPrincipal(nil)
	if err != nil {
		t.Fatal(err)
	}
	f3 := BuildFile(n, other.PublicKey(), content, sig, nil)
	h3 := make(http.Header)
	SetHeaders(h3, f3)
	if _, err := VerifyResponse(h3, content); err != names.ErrKeyMismatch {
		t.Errorf("substituted key: err = %v, want ErrKeyMismatch", err)
	}

	// Malformed base64 in publisher.
	h5 := make(http.Header)
	SetHeaders(h5, f)
	h5.Set(HeaderPublisher, "ed25519=!!!notbase64")
	if _, err := VerifyResponse(h5, content); err == nil {
		t.Error("malformed publisher accepted")
	}
}

// TestVerifyResponseChecks pins that hashing the body once did not fold two
// checks into one: the digest header and the signature are each still
// compared against the body that actually arrived.
func TestVerifyResponseChecks(t *testing.T) {
	p, n, content, sig := testSetup(t)
	headers := func(f File) http.Header {
		h := make(http.Header)
		SetHeaders(h, f)
		return h
	}
	tampered := append([]byte("x"), content...)
	other, err := p.Name("farewell")
	if err != nil {
		t.Fatal(err)
	}
	noDigest := headers(BuildFile(n, p.PublicKey(), content, sig, nil))
	noDigest.Del(HeaderDigest)
	wrongDigest := headers(BuildFile(n, p.PublicKey(), content, sig, nil))
	wrongDigest.Set(HeaderDigest, "SHA-256=AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA=")

	for _, tc := range []struct {
		name string
		h    http.Header
		body []byte
		want error
	}{
		// BuildFile over the tampered bytes recomputes a matching Digest
		// header; only the signature can tell.
		{"body tampered, digest header recomputed", headers(BuildFile(n, p.PublicKey(), tampered, sig, nil)), tampered, names.ErrBadSignature},
		{"digest header wrong, body and signature right", wrongDigest, content, ErrDigestMismatch},
		// Same key, same bytes, same signature, but claimed under another
		// label: the signature binds the label.
		{"valid response relabelled under the same key", headers(BuildFile(other, p.PublicKey(), content, sig, nil)), content, names.ErrBadSignature},
		{"no digest header", noDigest, content, nil},
		{"no digest header, body tampered", noDigest, tampered, names.ErrBadSignature},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, err := VerifyResponse(tc.h, tc.body)
			if err != tc.want {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if err != nil {
				return
			}
			if v.Digest != sha256.Sum256(tc.body) || v.Size != int64(len(tc.body)) {
				t.Errorf("Digest/Size = %x/%d, want those of the body", v.Digest, v.Size)
			}
			if got, want := v.File(), BuildFile(n, p.PublicKey(), tc.body, sig, nil); !reflect.DeepEqual(got, want) {
				t.Errorf("Verified.File() = %+v, want BuildFile's %+v", got, want)
			}
		})
	}
}

func TestParseMirrors(t *testing.T) {
	h := make(http.Header)
	h.Add(HeaderLink, `<http://a.example/1>; rel=duplicate; pri=1`)
	h.Add(HeaderLink, `<http://b.example/2>; rel=duplicate; pri=2, <http://c.example/3>; rel=describedby`)
	got := ParseMirrors(h)
	if len(got) != 2 || got[0] != "http://a.example/1" || got[1] != "http://b.example/2" {
		t.Errorf("ParseMirrors = %v", got)
	}
	// Malformed entries are skipped, not fatal.
	h2 := make(http.Header)
	h2.Add(HeaderLink, `malformed rel=duplicate no brackets`)
	if got := ParseMirrors(h2); len(got) != 0 {
		t.Errorf("malformed link produced %v", got)
	}
}

// Property: for random content, the header round trip always verifies and
// any single-byte flip in the body always fails.
func TestVerifyQuick(t *testing.T) {
	p, _, _, _ := testSetup(t)
	f := func(content []byte, flip uint16) bool {
		n, err := p.Name("quick")
		if err != nil {
			return false
		}
		sig := p.SignContent("quick", content)
		h := make(http.Header)
		SetHeaders(h, BuildFile(n, p.PublicKey(), content, sig, nil))
		if _, err := VerifyResponse(h, content); err != nil {
			return false
		}
		if len(content) == 0 {
			return true
		}
		bad := append([]byte(nil), content...)
		bad[int(flip)%len(bad)] ^= 0x01
		_, err = VerifyResponse(h, bad)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
