// Package fixture is the facade of a module that pins the reachability
// gate's root rules.
package fixture

import "fixture/internal/a"

// Box is re-exported, so its exported methods are facade API.
type Box = a.Box
