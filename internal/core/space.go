package core

import (
	"strconv"
	"time"

	"repro/internal/lease"
	"repro/internal/sign"
	"repro/internal/tuplespace"
	"repro/internal/wire"
)

// Tuple-space distribution: the alternative extension-distribution substrate
// the paper names as future work (§4.6, citing Linda and TSpaces). A base
// writes its signed extensions into a shared space under leases; receivers
// poll the space and install whatever matches, renewing their local leases
// for as long as the tuple stays alive. When the base stops renewing the
// tuple (or the node can no longer reach the space), the extension expires on
// the node exactly like in the push model.

// extensionTupleTag tags extension tuples in a shared space.
const extensionTupleTag = "midas.extension"

// PublishExtension signs ext and writes it into sp under a lease of dur:
// ("midas.extension", name, version, baseAddr, payload). The returned lease
// is the tuple's; the publisher renews it through sp.Renew.
func PublishExtension(sp *tuplespace.Space, signer *sign.Signer, ext Extension, baseAddr string, dur time.Duration) (lease.Lease, error) {
	signed, err := Sign(signer, ext)
	if err != nil {
		return lease.Lease{}, err
	}
	payload := wire.Marshal(signed)
	t := tuplespace.Tuple{
		tuplespace.FStr(extensionTupleTag),
		tuplespace.FStr(ext.Name),
		tuplespace.FInt(int64(ext.Version)),
		tuplespace.FStr(baseAddr),
		tuplespace.FBytes(payload),
	}
	return sp.Out(t, dur), nil
}

// extensionTemplate matches all extension tuples.
func extensionTemplate() tuplespace.Tuple {
	return tuplespace.Tuple{
		tuplespace.FStr(extensionTupleTag),
		tuplespace.FAny(),
		tuplespace.FAny(),
		tuplespace.FAny(),
		tuplespace.FAny(),
	}
}

// SpaceListener keeps one receiver synchronised with the extensions present
// in a tuple space; its owner calls Scan periodically.
type SpaceListener struct {
	Space    *tuplespace.Space
	Receiver *Receiver

	leases map[string]string // "name@version" -> lease id
}

// Scan performs one synchronisation round: new extension tuples are verified
// and installed under local leases of leaseDur; known ones have their leases
// renewed. When a tuple disappears, renewals stop and the receiver expires
// the extension on its own.
func (l *SpaceListener) Scan(leaseDur time.Duration) {
	if l.leases == nil {
		l.leases = make(map[string]string)
	}
	for _, t := range l.Space.RdAll(extensionTemplate()) {
		if len(t) != 5 {
			continue
		}
		key := t[1].S + "@" + strconv.FormatInt(t[2].I, 10)
		baseAddr := t[3].S
		if id, known := l.leases[key]; known {
			if err := l.Receiver.Renew(lease.ID(id), leaseDur); err == nil {
				continue
			}
			// Lease vanished (expired during a long pause): re-install.
			delete(l.leases, key)
		}
		var signed SignedExtension
		if err := wire.Unmarshal(t[4].B, &signed); err != nil {
			continue // malformed tuple: ignore, it is not for us
		}
		id, err := l.Receiver.Install(signed, baseAddr, leaseDur)
		if err != nil {
			continue // untrusted, stale version, or policy rejection
		}
		l.leases[key] = string(id)
	}
}
