package main

import (
	"context"
	"errors"

	"palaemon/internal/core"
	"palaemon/internal/fleet"
	"palaemon/internal/policy"
)

// policyAPI is the stakeholder surface the policy workloads drive. The
// TLS client, the fleet router and the in-process instance all satisfy
// it, so the traced run can replay the exact ops of a run on
// core.Instance and split server time into edge and instance.
type policyAPI interface {
	CreatePolicy(ctx context.Context, p *policy.Policy) error
	UpdatePolicy(ctx context.Context, p *policy.Policy) error
	DeletePolicy(ctx context.Context, name string) error
	ReadPolicy(ctx context.Context, name string) (*policy.Policy, error)
	ReadPolicyIfChanged(ctx context.Context, name string, createID, rev uint64) (*policy.Policy, bool, error)
	FetchSecrets(ctx context.Context, name string, names []string) (map[string]string, error)
}

type clientAPI struct{ *core.Client }

func (c clientAPI) FetchSecrets(ctx context.Context, name string, names []string) (map[string]string, error) {
	return c.Client.FetchSecrets(ctx, name, names, nil)
}

type fleetAPI struct{ *fleet.Client }

func (fleetAPI) ReadPolicyIfChanged(context.Context, string, uint64, uint64) (*policy.Policy, bool, error) {
	return nil, false, errors.New("perfbench: the fleet client has no conditional read")
}

// localAPI calls an instance directly under a stakeholder identity.
type localAPI struct {
	core.Local
	// owner picks the instance for a policy name; nil means Local.Inst.
	owner func(name string) *core.Instance
}

func (l localAPI) inst(name string) core.Local {
	if l.owner != nil {
		return core.Local{Inst: l.owner(name), ID: l.ID}
	}
	return l.Local
}

func (l localAPI) CreatePolicy(ctx context.Context, p *policy.Policy) error {
	return l.inst(p.Name).Inst.CreatePolicy(ctx, l.ID, p)
}

func (l localAPI) UpdatePolicy(ctx context.Context, p *policy.Policy) error {
	return l.inst(p.Name).Inst.UpdatePolicy(ctx, l.ID, p)
}

func (l localAPI) DeletePolicy(ctx context.Context, name string) error {
	return l.inst(name).Inst.DeletePolicy(ctx, l.ID, name)
}

func (l localAPI) ReadPolicy(ctx context.Context, name string) (*policy.Policy, error) {
	loc := l.inst(name)
	return loc.ReadPolicy(ctx, name)
}

func (l localAPI) ReadPolicyIfChanged(ctx context.Context, name string, createID, rev uint64) (*policy.Policy, bool, error) {
	loc := l.inst(name)
	return loc.ReadPolicyIfChanged(ctx, name, createID, rev)
}

func (l localAPI) FetchSecrets(ctx context.Context, name string, names []string) (map[string]string, error) {
	loc := l.inst(name)
	return loc.FetchSecrets(ctx, name, names, nil)
}
