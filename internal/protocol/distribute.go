package protocol

import (
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/transport"
)

// DistributeBundles sends each computing party its bundle of a freshly
// shared secret (the data-owner / model-owner share distribution of
// §III-A).
func DistributeBundles(ep transport.Endpoint, session, step string, bundles [sharing.NumParties]sharing.Bundle) error {
	for p := 1; p <= sharing.NumParties; p++ {
		err := ep.Send(transport.Message{
			To:      p,
			Session: session,
			Step:    step,
			Payload: transport.EncodeBundle(bundles[p-1]),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// RecvBundle receives a distributed bundle at a computing party.
func RecvBundle(ctx *Ctx, from int, session, step string) (sharing.Bundle, error) {
	msg, err := ctx.Router.Expect(from, session, step)
	if err != nil {
		return sharing.Bundle{}, err
	}
	b, err := transport.DecodeBundle(msg.Payload)
	msg.Release() // decoded shares own their storage
	return b, err
}

// RecvPlainShare receives a plain share at an HbC party.
func RecvPlainShare(ctx *HbCCtx, from int, session, step string) (Mat, error) {
	msg, err := ctx.Router.Expect(from, session, step)
	if err != nil {
		return Mat{}, err
	}
	ms, err := transport.DecodeMatrices(msg.Payload)
	msg.Release()
	if err != nil {
		return Mat{}, err
	}
	if len(ms) != 1 {
		return Mat{}, err
	}
	return ms[0], nil
}
