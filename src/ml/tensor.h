// Dense float32 tensor — the value type of the stf::ml dataflow framework.
//
// Row-major contiguous storage, shapes as vectors of dimensions. The math
// here is real (inference and training actually compute); the TEE cost
// model separately accounts for what that math would cost inside an enclave.
//
// A tensor either owns its elements or is a read-only view into a
// SharedFloats store such as a FlatModel's weight arena. Copies always own
// their elements (copying a view copies what it views); moves and
// reshaped() of a view keep viewing the store. A store is never written
// through a tensor.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace stf::ml {

using Shape = std::vector<std::int64_t>;

[[nodiscard]] inline std::int64_t num_elements(const Shape& shape) {
  std::int64_t n = 1;
  for (const auto d : shape) {
    if (d < 0) throw std::invalid_argument("negative dimension");
    n *= d;
  }
  return n;
}

[[nodiscard]] inline std::string shape_to_string(const Shape& shape) {
  std::string s = "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(shape[i]);
  }
  return s + "]";
}

/// Immutable float storage that tensors can alias without copying.
using SharedFloats = std::shared_ptr<const std::vector<float>>;

class Tensor {
 public:
  Tensor() = default;

  explicit Tensor(Shape shape)
      : shape_(std::move(shape)),
        data_(static_cast<std::size_t>(num_elements(shape_)), 0.0f) {
    point_at_owned();
  }

  Tensor(Shape shape, std::vector<float> data)
      : shape_(std::move(shape)), data_(std::move(data)) {
    point_at_owned();
    if (size_ != num_elements(shape_)) {
      throw std::invalid_argument("Tensor: data size does not match shape " +
                                  shape_to_string(shape_));
    }
  }

  // A copy always owns its elements (a copy of a view copies what it
  // views); a move keeps the storage and leaves the source empty. Written
  // out because first_ must follow the elements it points at.
  Tensor(const Tensor& other)
      : shape_(other.shape_), data_(other.first_, other.first_ + other.size_) {
    point_at_owned();
  }
  Tensor(Tensor&& other) noexcept
      : shape_(std::move(other.shape_)),
        data_(std::move(other.data_)),
        view_(std::move(other.view_)),
        first_(std::exchange(other.first_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  Tensor& operator=(const Tensor& other) {
    if (this != &other) *this = Tensor(other);
    return *this;
  }
  Tensor& operator=(Tensor&& other) noexcept {
    if (this == &other) return *this;
    shape_ = std::move(other.shape_);
    data_ = std::move(other.data_);
    view_ = std::move(other.view_);
    first_ = std::exchange(other.first_, nullptr);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }
  ~Tensor() = default;

  /// Read-only view of the num_elements(shape) elements of `store` starting
  /// at `offset`: O(1), no element is copied. The view keeps `store` alive.
  static Tensor view(Shape shape, SharedFloats store, std::int64_t offset) {
    const std::int64_t n = num_elements(shape);
    if (store == nullptr || offset < 0 ||
        offset > static_cast<std::int64_t>(store->size()) - n) {
      throw std::invalid_argument("Tensor: view " + shape_to_string(shape) +
                                  " at offset " + std::to_string(offset) +
                                  " exceeds its store");
    }
    Tensor t;
    t.shape_ = std::move(shape);
    t.first_ = store->data() + offset;
    t.size_ = n;
    t.view_ = std::shared_ptr<const float>(std::move(store), t.first_);
    return t;
  }

  /// Scalar convenience.
  static Tensor scalar(float v) { return Tensor({1}, {v}); }

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::int64_t size() const { return size_; }
  [[nodiscard]] std::uint64_t byte_size() const {
    return static_cast<std::uint64_t>(size_) * sizeof(float);
  }
  [[nodiscard]] std::int64_t dim(std::size_t i) const { return shape_.at(i); }
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  /// True while the tensor aliases a shared store rather than owning data.
  [[nodiscard]] bool is_view() const { return view_ != nullptr; }

  /// Mutable elements. A view first copies its elements into owned
  /// storage, on the calling thread, so the store is never written.
  [[nodiscard]] float* data() {
    if (view_ != nullptr) own();
    return data_.data();
  }
  [[nodiscard]] const float* data() const { return first_; }
  /// Checked mutable element access; throws std::logic_error on a view
  /// (call data() or copy it first). It does not copy-on-write itself: a
  /// returning call here would keep the compiler from holding the storage
  /// pointer in a register across element loops.
  [[nodiscard]] float& at(std::int64_t i) {
    if (view_ != nullptr) [[unlikely]] read_only();
    return data_[checked(i)];
  }
  [[nodiscard]] float at(std::int64_t i) const { return first_[checked(i)]; }

  /// 2-D indexed access (checked), for matrices [rows, cols].
  [[nodiscard]] float& at2(std::int64_t r, std::int64_t c) {
    return at(r * shape_.at(1) + c);
  }
  [[nodiscard]] float at2(std::int64_t r, std::int64_t c) const {
    return at(r * shape_.at(1) + c);
  }

  [[nodiscard]] bool same_shape(const Tensor& other) const {
    return shape_ == other.shape_;
  }

  /// Returns the same elements under a new shape with the same element
  /// count: a view of a view, a copy of an owned tensor.
  [[nodiscard]] Tensor reshaped(Shape new_shape) const {
    if (num_elements(new_shape) != size_) {
      throw std::invalid_argument("reshape: element count mismatch");
    }
    if (view_ == nullptr) return Tensor(std::move(new_shape), data_);
    Tensor t;
    t.shape_ = std::move(new_shape);
    t.view_ = view_;
    t.first_ = first_;
    t.size_ = size_;
    return t;
  }

  /// Compares shapes and element values, whatever the storage.
  bool operator==(const Tensor& other) const {
    return shape_ == other.shape_ &&
           std::equal(first_, first_ + size_, other.first_);
  }

 private:
  void point_at_owned() {
    first_ = data_.data();
    size_ = static_cast<std::int64_t>(data_.size());
  }

  /// Copy-on-write: turns a view into an owned copy of its elements.
  void own() {
    data_.assign(first_, first_ + size_);
    view_.reset();
    point_at_owned();
  }

  [[nodiscard]] std::size_t checked(std::int64_t i) const {
    if (i < 0 || i >= size_) [[unlikely]] out_of_range();
    return static_cast<std::size_t>(i);
  }
  [[noreturn]] static void out_of_range() {
    throw std::out_of_range("Tensor: index out of range");
  }
  [[noreturn]] static void read_only() {
    throw std::logic_error("Tensor: at() cannot write through a view");
  }

  Shape shape_;
  std::vector<float> data_;            ///< owned elements; empty for a view
  std::shared_ptr<const float> view_;  ///< keeps a viewed store alive
  const float* first_ = nullptr;       ///< first element, owned or viewed
  std::int64_t size_ = 0;
};

}  // namespace stf::ml
