package store

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Opener constructs a Store from a parsed URL. The query carries
// backend options; openers must ignore parameters they do not know so
// shared knobs can be added without breaking registered backends.
type Opener func(u *url.URL) (Store, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Opener{}
)

// Register installs an opener for a URL scheme, replacing any previous
// registration. The built-in schemes (mem, file, http, https, tiered)
// are registered at init; deployments can add their own backends
// (an S3 SDK, a dedup engine, ...) without touching this package.
func Register(scheme string, open Opener) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[strings.ToLower(scheme)] = open
}

// Open constructs a store from a backend URL:
//
//	mem://                                sharded in-memory store
//	file:///var/blocks?sync=1             file-backed store (sync=1 fsyncs writes
//	                                      and directory renames)
//	http://peer:9000/base                 remote HTTP object store (S3-flavored
//	                                      GET/PUT/DELETE/range/list; see httpstore.go)
//	tiered://?hot=mem://&cold=file:///c   hot/cold tiered engine; see tiered.go
//	                                      for the policy knobs (max-hot-bytes,
//	                                      demote-after, demote-every, write-back)
//
// Nested URLs inside tiered:// only need escaping when they carry a
// query of their own (url.QueryEscape the whole nested URL then).
func Open(rawURL string) (Store, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("store: open %q: %w", rawURL, err)
	}
	if u.Scheme == "" {
		return nil, fmt.Errorf("store: open %q: no scheme (want mem://, file://, http://, tiered://)", rawURL)
	}
	registryMu.RLock()
	open, ok := registry[strings.ToLower(u.Scheme)]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("store: open %q: unknown backend scheme %q", rawURL, u.Scheme)
	}
	st, err := open(u)
	if err != nil {
		return nil, fmt.Errorf("store: open %q: %w", rawURL, err)
	}
	return st, nil
}

// OpenMember opens the store URL for member i of a fleet: every "{n}"
// in the URL is replaced by the member index first, so one template
// like "file:///var/blobseer/provider-{n}" (or a tiered URL nesting
// it) configures a whole deployment without colliding directories.
func OpenMember(rawURL string, i int) (Store, error) {
	return Open(MemberURL(rawURL, i))
}

// MemberURL expands every "{n}" in a store URL template to member i.
func MemberURL(rawURL string, i int) string {
	return strings.ReplaceAll(rawURL, "{n}", strconv.Itoa(i))
}

func init() {
	Register("mem", func(u *url.URL) (Store, error) {
		return NewMemStore(), nil
	})
	Register("file", openFile)
	Register("http", openHTTP)
	Register("https", openHTTP)
	Register("tiered", openTiered)
}

// openFile maps file URLs onto NewFSStore. Both absolute
// ("file:///var/blocks") and relative ("file:data" or "file://data/x",
// where the host part is read as the first path element) forms work.
func openFile(u *url.URL) (Store, error) {
	path := u.Path
	switch {
	case u.Opaque != "":
		path = u.Opaque
	case u.Host != "":
		path = u.Host + u.Path
	}
	if path == "" {
		return nil, fmt.Errorf("file store: empty path")
	}
	return NewFSStore(path, boolParam(u.Query(), "sync"))
}

func openHTTP(u *url.URL) (Store, error) {
	base := *u
	base.RawQuery = ""
	base.Fragment = ""
	return NewHTTPStore(base.String()), nil
}

func openTiered(u *url.URL) (Store, error) {
	q := u.Query()
	hotURL, coldURL := q.Get("hot"), q.Get("cold")
	if hotURL == "" || coldURL == "" {
		return nil, fmt.Errorf("tiered store: want hot= and cold= backend URLs")
	}
	hot, err := Open(hotURL)
	if err != nil {
		return nil, fmt.Errorf("tiered store: hot tier: %w", err)
	}
	cold, err := Open(coldURL)
	if err != nil {
		hot.Close()
		return nil, fmt.Errorf("tiered store: cold tier: %w", err)
	}
	opts := TierOptions{WriteBack: boolParam(q, "write-back")}
	if opts.MaxHotBytes, err = sizeParam(q, "max-hot-bytes"); err != nil {
		hot.Close()
		cold.Close()
		return nil, fmt.Errorf("tiered store: %w", err)
	}
	if opts.DemoteAfter, err = durParam(q, "demote-after"); err == nil {
		opts.Interval, err = durParam(q, "demote-every")
	}
	if err != nil {
		hot.Close()
		cold.Close()
		return nil, fmt.Errorf("tiered store: %w", err)
	}
	return NewTiered(hot, cold, opts), nil
}

// boolParam reads a boolean query option: absent or "0"/"false" is
// false, anything else ("1", "true", bare "sync=") is true.
func boolParam(q url.Values, name string) bool {
	if !q.Has(name) {
		return false
	}
	v := strings.ToLower(q.Get(name))
	return v != "0" && v != "false"
}

func sizeParam(q url.Values, name string) (int64, error) {
	v := q.Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s %q (want a byte count)", name, v)
	}
	return n, nil
}

func durParam(q url.Values, name string) (time.Duration, error) {
	v := q.Get(name)
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad %s %q (want a duration like 30s)", name, v)
	}
	return d, nil
}
