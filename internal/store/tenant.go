package store

// Tenancy: every run, edge sidecar, live session, and continuous query
// is namespaced by a tenant name. The default tenant keeps the
// pre-federation disk layout (segments/ and edges/ at the archive
// root), so single-tenant archives upgrade in place; every other tenant
// lives under tenants/<name>/. TenantView is the scoped handle the HTTP
// layer works through after extracting the X-Cham-Tenant header.

import (
	"fmt"

	"chameleon/internal/obs"
)

// DefaultTenant is the namespace used when no tenant is specified.
const DefaultTenant = "default"

// ValidTenant reports whether a tenant name is acceptable: 1-64
// characters of [A-Za-z0-9._-] — the live session ID alphabet, safe as
// a directory name — except "." and "..", which are path traversal.
func ValidTenant(name string) bool {
	return obs.ValidateSessionID(name) == nil && name != "." && name != ".."
}

// NormalizeTenant maps the empty string to DefaultTenant and validates
// everything else.
func NormalizeTenant(name string) (string, error) {
	if name == "" {
		return DefaultTenant, nil
	}
	if !ValidTenant(name) {
		return "", fmt.Errorf("store: invalid tenant name %q", name)
	}
	return name, nil
}

// TenantView is an Archive scoped to one tenant, and the only place
// per-run operations are implemented (store.go: ingest, lookup, list,
// delete; edges.go: sidecars and wave detection). The zero value is not
// usable; obtain one from Archive.Tenant.
type TenantView struct {
	a      *Archive
	tenant string
}

// Tenant returns a view of the archive scoped to the named tenant
// (empty = default). The name is assumed validated; use
// NormalizeTenant at trust boundaries.
func (a *Archive) Tenant(name string) TenantView {
	if name == "" {
		name = DefaultTenant
	}
	return TenantView{a: a, tenant: name}
}

// Usage returns the stored raw bytes (the quota-accounted measure) of
// every tenant with at least one archived run.
func (a *Archive) Usage() map[string]int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int64, len(a.runs))
	for t, runs := range a.runs {
		if len(runs) > 0 {
			out[t] = a.used[t]
		}
	}
	return out
}
