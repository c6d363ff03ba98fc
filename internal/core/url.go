package core

import (
	"net/url"
	"strings"
)

// NormalizeURL canonicalises an image URL so that equivalent re-shared
// spellings of the same resource key identically everywhere a URL is used
// as an identity: partition routing, the forward index's URL side-buffer,
// the feature DB, the image store, and the feature cache. Without this,
// "http://host/a.jpg#frag" and "http://HOST:80/a.jpg" index as distinct
// images and pay two CNN passes.
//
// The transform is deliberately conservative — only equivalences guaranteed
// by RFC 3986 semantics:
//
//   - scheme and host are lowercased
//   - the fragment is stripped (never sent to the server)
//   - an explicit default port is dropped (:80 for http, :443 for https)
//   - a single trailing slash on a non-root path is stripped
//
// Query strings are preserved verbatim: on image CDNs they select variants
// (resize, crop) and are part of the content identity. Input that does not
// parse as a URL is returned unchanged — opaque store keys stay usable.
// So is input already in canonical form: the result is then the argument
// itself, not a copy, so maps keyed by it share the caller's string.
func NormalizeURL(raw string) string {
	u, err := url.Parse(raw)
	if err != nil || u.Scheme == "" {
		return raw
	}
	u.Scheme = strings.ToLower(u.Scheme)
	u.Fragment = ""
	u.RawFragment = ""
	if host := u.Host; host != "" {
		host = strings.ToLower(host)
		switch {
		case u.Scheme == "http" && strings.HasSuffix(host, ":80"):
			host = strings.TrimSuffix(host, ":80")
		case u.Scheme == "https" && strings.HasSuffix(host, ":443"):
			host = strings.TrimSuffix(host, ":443")
		}
		u.Host = host
	}
	if p := u.Path; len(p) > 1 && strings.HasSuffix(p, "/") {
		u.Path = strings.TrimSuffix(p, "/")
		u.RawPath = strings.TrimSuffix(u.RawPath, "/")
	}
	if canon := u.String(); canon != raw {
		return canon
	}
	return raw
}
