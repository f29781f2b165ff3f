#include "grid/frame.hpp"

#include "support/error.hpp"
#include "support/text.hpp"

namespace islhls {

std::string to_string(Boundary b) {
    switch (b) {
        case Boundary::clamp: return "clamp";
        case Boundary::zero: return "zero";
        case Boundary::mirror: return "mirror";
        case Boundary::periodic: return "periodic";
    }
    return "?";
}

Frame::Frame(int width, int height, double fill)
    : width_(width), height_(height),
      data_(static_cast<std::size_t>(width) * static_cast<std::size_t>(height), fill) {
    check_internal(width >= 0 && height >= 0, "Frame dimensions must be non-negative");
}

namespace {

// at() sits in per-element loops, so the message is built only when the
// check fails.
void check_at(bool inside, int x, int y, int width, int height) {
    if (!inside) {
        check_internal(false, cat("Frame::at out of range (", x, ",", y, ") in ", width,
                                  "x", height));
    }
}

}  // namespace

double& Frame::at(int x, int y) {
    check_at(contains(x, y), x, y, width_, height_);
    return data_[static_cast<std::size_t>(y) * width_ + x];
}

double Frame::at(int x, int y) const {
    check_at(contains(x, y), x, y, width_, height_);
    return data_[static_cast<std::size_t>(y) * width_ + x];
}

double Frame::sample(int x, int y, Boundary b) const {
    const int rx = resolve_coordinate(x, width_, b);
    const int ry = resolve_coordinate(y, height_, b);
    if (rx < 0 || ry < 0) return 0.0;  // Boundary::zero outside
    return data_[static_cast<std::size_t>(ry) * width_ + rx];
}

int resolve_coordinate(int v, int n, Boundary b) {
    check_internal(n > 0, "resolve_coordinate on empty axis");
    if (v >= 0 && v < n) return v;
    switch (b) {
        case Boundary::clamp:
            return v < 0 ? 0 : n - 1;
        case Boundary::zero:
            return -1;
        case Boundary::mirror: {
            // Reflect without repeating the edge element: for n==1 everything
            // maps to 0. Period of the reflected sequence is 2n-2.
            if (n == 1) return 0;
            const int period = 2 * n - 2;
            int m = v % period;
            if (m < 0) m += period;
            return m < n ? m : period - m;
        }
        case Boundary::periodic: {
            int m = v % n;
            if (m < 0) m += n;
            return m;
        }
    }
    return -1;
}

}  // namespace islhls
