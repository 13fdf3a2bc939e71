#include "dbm.hpp"

#include <sstream>
#include <stdexcept>

#include "sim/hash.hpp"

namespace mcps::ta {

std::string Bound::to_string() const {
    if (is_infinite()) return "<inf";
    return (is_strict() ? "<" : "<=") + std::to_string(value());
}

Dbm::Dbm(std::size_t num_clocks) : n_{num_clocks + 1} {
    if (num_clocks == 0) {
        throw std::invalid_argument("Dbm: need at least one clock");
    }
    m_.assign(n_ * n_, Bound::infinity());
    for (std::size_t i = 0; i < n_; ++i) cell(i, i) = Bound::zero_weak();
    // Clocks are non-negative: x0 - xi <= 0.
    for (std::size_t i = 1; i < n_; ++i) cell(0, i) = Bound::zero_weak();
    // Already canonical.
}

Dbm Dbm::zero(std::size_t num_clocks) {
    Dbm d{num_clocks};
    for (std::size_t i = 0; i < d.n_; ++i) {
        for (std::size_t j = 0; j < d.n_; ++j) {
            d.cell(i, j) = Bound::zero_weak();
        }
    }
    return d;
}

void Dbm::check_ids(ClockId i, ClockId j) const {
    if (i >= n_ || j >= n_) {
        throw std::out_of_range("Dbm: clock id out of range");
    }
}

void Dbm::canonicalize() {
    if (empty_) return;
    for (std::size_t k = 0; k < n_; ++k) {
        for (std::size_t i = 0; i < n_; ++i) {
            const Bound ik = cell(i, k);
            if (ik.is_infinite()) continue;
            for (std::size_t j = 0; j < n_; ++j) {
                const Bound through = ik + cell(k, j);
                if (through < cell(i, j)) cell(i, j) = through;
            }
        }
    }
    for (std::size_t i = 0; i < n_; ++i) {
        if (cell(i, i) < Bound::zero_weak()) {
            empty_ = true;
            return;
        }
    }
}

void Dbm::up() {
    if (empty_) return;
    // Remove upper bounds: xi - x0 becomes unbounded; canonical form is
    // preserved by this operation (Bengtsson & Yi, Lemma 6).
    for (std::size_t i = 1; i < n_; ++i) cell(i, 0) = Bound::infinity();
}

void Dbm::reset(ClockId x) {
    if (empty_) return;
    check_ids(x, 0);
    if (x == 0) throw std::invalid_argument("Dbm::reset: cannot reset x0");
    // x := 0  =>  x - y <= (0 - y) and y - x <= (y - 0); canonical form
    // is preserved.
    for (std::size_t j = 0; j < n_; ++j) {
        cell(x, j) = cell(0, j);
        cell(j, x) = cell(j, 0);
    }
    cell(x, x) = Bound::zero_weak();
}

bool Dbm::constrain(ClockId i, ClockId j, Bound b) {
    if (empty_) return false;
    check_ids(i, j);
    if (b.is_infinite()) return true;
    // Quick infeasibility: existing lower bound contradicts new upper.
    if (cell(j, i) + b < Bound::zero_weak()) {
        empty_ = true;
        return false;
    }
    if (b < cell(i, j)) {
        cell(i, j) = b;
        // Restore canonical form incrementally: paths through (i,j).
        for (std::size_t a = 0; a < n_; ++a) {
            const Bound ai = cell(a, i);
            if (ai.is_infinite()) continue;
            for (std::size_t c = 0; c < n_; ++c) {
                const Bound through = ai + b + cell(j, c);
                if (through < cell(a, c)) cell(a, c) = through;
            }
        }
        for (std::size_t a = 0; a < n_; ++a) {
            if (cell(a, a) < Bound::zero_weak()) {
                empty_ = true;
                return false;
            }
        }
    }
    return true;
}

bool Dbm::constrain_upper(ClockId x, std::int32_t c, bool strict) {
    return constrain(x, 0, strict ? Bound::strict(c) : Bound::weak(c));
}

bool Dbm::constrain_lower(ClockId x, std::int32_t c, bool strict) {
    // x >= c  <=>  x0 - x <= -c (weak) / < -c (strict).
    return constrain(0, x, strict ? Bound::strict(-c) : Bound::weak(-c));
}

bool Dbm::includes(const Dbm& other) const {
    if (other.empty_) return true;
    if (empty_) return false;
    if (n_ != other.n_) {
        throw std::invalid_argument("Dbm::includes: dimension mismatch");
    }
    for (std::size_t i = 0; i < n_ * n_; ++i) {
        if (m_[i] < other.m_[i]) return false;
    }
    return true;
}

void Dbm::extrapolate(std::int32_t max_const) {
    if (empty_) return;
    const Bound upper = Bound::weak(max_const);
    const Bound lower = Bound::strict(-max_const);
    bool changed = false;
    for (std::size_t i = 0; i < n_; ++i) {
        for (std::size_t j = 0; j < n_; ++j) {
            if (i == j) continue;
            Bound& b = cell(i, j);
            if (!b.is_infinite() && b > upper) {
                b = Bound::infinity();
                changed = true;
            } else if (b < lower) {
                b = lower;
                changed = true;
            }
        }
    }
    if (changed) canonicalize();
}

bool Dbm::operator==(const Dbm& o) const {
    if (empty_ != o.empty_) return false;
    if (empty_) return true;
    return n_ == o.n_ && m_ == o.m_;
}

std::size_t Dbm::hash() const {
    // FNV-1a over raw bound values of the canonical matrix.
    std::size_t h = sim::kFnvOffset;
    if (empty_) return h;
    for (const Bound& b : m_) {
        h ^= static_cast<std::size_t>(static_cast<std::uint32_t>(b.raw()));
        h *= sim::kFnvPrime;
    }
    return h;
}

std::string Dbm::to_string() const {
    if (empty_) return "(empty zone)";
    std::ostringstream os;
    for (std::size_t i = 0; i < n_; ++i) {
        for (std::size_t j = 0; j < n_; ++j) {
            os << cell(i, j).to_string();
            if (j + 1 < n_) os << "  ";
        }
        os << '\n';
    }
    return os.str();
}

}  // namespace mcps::ta
