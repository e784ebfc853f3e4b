package protocol

import (
	"fmt"

	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/transport"
)

// stepKeys carries an owner's dealing keys to a party at provisioning.
const stepKeys = "keys"

// keysWireLen is a party's keys on the wire: its Primary, Hat and
// Private keys, 16 bytes each.
const keysWireLen = 3 * len(sharing.Key{})

// DistributeKeys sends each computing party what it holds of dealer's
// keys (the keys step of provisioning). Every share the dealer deals
// later expands with them.
func DistributeKeys(ep transport.Endpoint, session string, dealer *sharing.Dealer) error {
	for p := 1; p <= sharing.NumParties; p++ {
		k := dealer.Keys(p)
		payload := make([]byte, 0, keysWireLen)
		payload = append(append(append(payload, k.Primary[:]...), k.Hat[:]...), k.Private[:]...)
		if err := ep.Send(transport.Message{To: p, Session: session, Step: stepKeys, Payload: payload}); err != nil {
			return err
		}
	}
	return nil
}

// IsKeys reports whether msg carries an owner's dealing keys.
func IsKeys(msg transport.Message) bool { return msg.Step == stepKeys }

// InstallKeys installs the dealing keys an owner sent in msg.
func InstallKeys(ctx *Ctx, msg transport.Message) error {
	if len(msg.Payload) != keysWireLen {
		return fmt.Errorf("protocol: %d-byte keys from %s", len(msg.Payload), transport.ActorName(msg.From))
	}
	k := sharing.PartyKeys{Party: ctx.Index, Domain: sharing.DomainDeal}
	copy(k.Primary[:], msg.Payload)
	copy(k.Hat[:], msg.Payload[16:])
	copy(k.Private[:], msg.Payload[32:])
	ctx.SetKeys(msg.From, k)
	return nil
}

// RecvKeys receives and installs the dealing keys owner sent under
// session.
func RecvKeys(ctx *Ctx, owner int, session string) error {
	msg, err := ctx.Router.Expect(owner, session, stepKeys)
	if err != nil {
		return err
	}
	err = InstallKeys(ctx, msg)
	msg.Release()
	return err
}

// DistributeShares sends each computing party its keyed item of a
// freshly dealt value (the data-owner / model-owner share distribution
// of §III-A).
func DistributeShares(ep transport.Endpoint, session, step string, items [sharing.NumParties]sharing.KeyedItem) error {
	for p := 1; p <= sharing.NumParties; p++ {
		err := ep.Send(transport.Message{
			To:      p,
			Session: session,
			Step:    step,
			Payload: transport.EncodeKeyedItem(items[p-1]),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// RecvShare receives a dealt value at a computing party and expands it
// with the sender's keys.
func RecvShare(ctx *Ctx, from int, session, step string) (sharing.Bundle, error) {
	msg, err := ctx.Router.Expect(from, session, step)
	if err != nil {
		return sharing.Bundle{}, err
	}
	b, err := ExpandShare(ctx, from, msg.Payload)
	msg.Release() // the expansion owns its storage
	return b, err
}

// ExpandShare expands the keyed item of a value dealt by owner.
func ExpandShare(ctx *Ctx, owner int, payload []byte) (sharing.Bundle, error) {
	keys, err := ctx.keysOf(owner)
	if err != nil {
		return sharing.Bundle{}, err
	}
	return expandValue(payload, keys)
}

// expandValue decodes and expands a keyed value item.
func expandValue(payload []byte, keys sharing.PartyKeys) (sharing.Bundle, error) {
	it, err := transport.DecodeKeyedItem(payload, keys.Party)
	if err != nil {
		return sharing.Bundle{}, err
	}
	return it.Value(keys)
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
