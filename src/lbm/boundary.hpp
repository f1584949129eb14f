// Boundary-condition helpers beyond the pull rule of stream.hpp: Bouzidi
// linear interpolation for curved surfaces (Section 4.1, Mei et al.-style
// sub-link boundary placement) and momentum-exchange force measurement
// on obstacles (used by the cylinder-drag validation tests).
#pragma once

#include "lbm/lattice.hpp"

namespace gc::lbm {

/// Momentum transferred to solid cells by bounce-back during the last
/// stream (momentum-exchange method): sum over the links c_i from a fluid
/// cell x to a solid one of c_i (f*_i(x) + f_i'(x)), giving the
/// hydrodynamic force on the obstacle set. Defined right after a split
/// step's stream, in either storage mode: f_i' is the reflected
/// post-stream value, and f*_i the pre-stream value heading into the
/// wall. Half-way bounce-back leaves f_i' equal to f*_i, so the two are
/// one read; on a curved link f*_i is the value the stream recorded
/// (Lattice::curved_link_out).
Vec3 momentum_exchange_force(const Lattice& lat);

namespace detail {

/// The curved links of an AA stream, before the flip: writes each link's
/// Bouzidi value into the fixup of its reflected direction
/// (CellClass::curved_at) and records its f*_dir (Lattice::curved_link_out),
/// from the values the stream starts from, read through f. For a fluid
/// cell x with a wall cutting its link c_i at fraction q, the post-stream
/// value of the reflected direction i' = opp(i) is
///   q < 1/2 : f_i'(x) = 2q f*_i(x) + (1-2q) f*_i(x - c_i)
///   q >= 1/2: f_i'(x) = f*_i(x)/(2q) + (1 - 1/(2q)) f*_i'(x)
/// (q = 1/2 reduces to plain half-way bounce-back.)
void curved_link_fixups(Lattice& lat, const CellClass& cc);

}  // namespace detail
}  // namespace gc::lbm
