// Cube partition, chessboard coloring, and black–white pairing (§3.2).
//
// Z^ℓ is tiled by side-s cubes anchored at a fixed point. Inside each cube,
// vertices are ordered along a boustrophedon ("snake") walk in which
// consecutive vertices are grid-adjacent; pairing snake-index 2k with 2k+1
// yields adjacent pairs of opposite chessboard color — exactly the paper's
// black–white pairs, with at most one unpaired vertex when s^ℓ is odd
// (the paper's "single black vertex left unpaired"; it serves itself).
//
// The pair's *primary* vertex (even snake index) identifies the pair and
// hosts the initially-active vehicle; its partner starts idle.
//
// Complexity: snake_index / snake_vertex / partner are O(ℓ) arithmetic
// (no tables); primaries_in_cube enumerates O(s^ℓ / 2) vertices.
#pragma once

#include <cstdint>
#include <vector>

#include "grid/box.h"
#include "grid/point.h"

namespace cmvrp {

class CubePairing {
 public:
  CubePairing(int dim, Point anchor, std::int64_t side);

  int dim() const { return dim_; }
  std::int64_t side() const { return side_; }
  std::int64_t cube_volume() const { return volume_; }

  // Corner of the partition cube containing p.
  Point cube_corner(const Point& p) const;
  Box cube_of(const Point& p) const {
    return Box::cube(cube_corner(p), side_);
  }

  // Snake index of p within its cube, in [0, side^ℓ).
  std::int64_t snake_index(const Point& p) const;

  // Hot-path overload: `corner` must equal cube_corner(p). The serving
  // core resolves the corner once per arrival and threads it through, so
  // the snake/pair queries skip their own floor-divides.
  std::int64_t snake_index(const Point& p, const Point& corner) const;

  // Inverse: the vertex with snake index k in the cube with corner
  // `corner`.
  Point snake_vertex(const Point& corner, std::int64_t k) const;

  // The pair partner (equal to p itself for the odd singleton).
  Point partner(const Point& p) const;
  Point partner(const Point& p, const Point& corner) const;

  // True when p hosts the initially-active vehicle of its pair.
  bool is_primary(const Point& p) const { return snake_index(p) % 2 == 0; }

  // Pair identifier: the primary vertex.
  Point primary(const Point& p) const {
    return is_primary(p) ? p : partner(p);
  }
  // Corner-threaded variant (`corner` must equal cube_corner(p)).
  Point primary(const Point& p, const Point& corner) const {
    const std::int64_t k = snake_index(p, corner);
    if (k % 2 == 0) return p;
    const std::int64_t mate = k ^ 1;
    if (mate >= cube_volume()) return p;  // odd singleton
    return snake_vertex(corner, mate);
  }

  // All primary vertices of the cube containing p (one per pair).
  std::vector<Point> primaries_in_cube(const Point& corner) const;

 private:
  int dim_;
  Point anchor_;
  std::int64_t side_;
  std::int64_t volume_;  // side_^dim_, precomputed (hot-path constant)
};

}  // namespace cmvrp
