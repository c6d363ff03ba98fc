package core

import (
	"testing"
	"unsafe"
)

func TestNormalizeURL(t *testing.T) {
	tests := []struct {
		name, in, want string
	}{
		{"already canonical", "jfs://img.jd.local/p1/img2.jpg", "jfs://img.jd.local/p1/img2.jpg"},
		{"fragment stripped", "http://img.jd.local/a.jpg#share", "http://img.jd.local/a.jpg"},
		{"default http port", "http://img.jd.local:80/a.jpg", "http://img.jd.local/a.jpg"},
		{"default https port", "https://img.jd.local:443/a.jpg", "https://img.jd.local/a.jpg"},
		{"non-default port kept", "http://img.jd.local:8080/a.jpg", "http://img.jd.local:8080/a.jpg"},
		{"https keeps :80", "https://img.jd.local:80/a.jpg", "https://img.jd.local:80/a.jpg"},
		{"host lowercased", "http://IMG.JD.Local/a.jpg", "http://img.jd.local/a.jpg"},
		{"scheme lowercased", "HTTP://img.jd.local/a.jpg", "http://img.jd.local/a.jpg"},
		{"trailing slash stripped", "http://img.jd.local/dir/", "http://img.jd.local/dir"},
		{"root slash kept", "http://img.jd.local/", "http://img.jd.local/"},
		{"query preserved", "http://img.jd.local/a.jpg?w=200&h=200", "http://img.jd.local/a.jpg?w=200&h=200"},
		{"query plus fragment", "http://img.jd.local/a.jpg?w=200#x", "http://img.jd.local/a.jpg?w=200"},
		{"path case preserved", "http://img.jd.local/A.JPG", "http://img.jd.local/A.JPG"},
		{"all combined", "HTTP://IMG.JD.Local:80/p1/img.jpg/#frag", "http://img.jd.local/p1/img.jpg"},
		{"opaque key unchanged", "not a url at all", "not a url at all"},
		{"empty", "", ""},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := NormalizeURL(tc.in)
			if got != tc.want {
				t.Errorf("NormalizeURL(%q) = %q; want %q", tc.in, got, tc.want)
			}
			// A canonical input comes back as itself, not a copy.
			if tc.in == tc.want && tc.in != "" && unsafe.StringData(got) != unsafe.StringData(tc.in) {
				t.Errorf("NormalizeURL(%q) copied a canonical input", tc.in)
			}
		})
	}
}

// TestNormalizeURLIdempotent checks that the canonical form is a fixed
// point — normalising twice must not drift, since both the indexing path
// and the query path normalise independently.
func TestNormalizeURLIdempotent(t *testing.T) {
	ins := []string{
		"HTTP://IMG.JD.Local:80/p1/img.jpg/#frag",
		"jfs://img.jd.local/p1/img2.jpg",
		"https://img.jd.local:443/dir/?q=1",
	}
	for _, in := range ins {
		once := NormalizeURL(in)
		if twice := NormalizeURL(once); twice != once {
			t.Errorf("not idempotent: %q → %q → %q", in, once, twice)
		}
	}
}
