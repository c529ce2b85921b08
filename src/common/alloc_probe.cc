#include "common/alloc_probe.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace cuttlesys {
namespace {

std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_deletes{0};

void *
countedAlloc(std::size_t size)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    return std::malloc(size);
}

void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = align;
    return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void
countedFree(void *p)
{
    g_deletes.fetch_add(1, std::memory_order_relaxed);
    std::free(p);
}

} // namespace

namespace AllocProbe {

std::uint64_t
newCount()
{
    return g_news.load(std::memory_order_relaxed);
}

std::uint64_t
deleteCount()
{
    return g_deletes.load(std::memory_order_relaxed);
}

} // namespace AllocProbe
} // namespace cuttlesys

/*
 * Global allocation function replacements ([new.delete.single] allows
 * a program to define these). All throwing/nothrow/aligned/sized
 * forms route through the two counters above. cslint exempts
 * `operator new/delete` definitions from the naked-new rule.
 */

void *
operator new(std::size_t size)
{
    if (void *p = cuttlesys::countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    if (void *p = cuttlesys::countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return cuttlesys::countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return cuttlesys::countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    if (void *p = cuttlesys::countedAlignedAlloc(
            size, static_cast<std::size_t>(align)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    if (void *p = cuttlesys::countedAlignedAlloc(
            size, static_cast<std::size_t>(align)))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    cuttlesys::countedFree(p);
}

void
operator delete[](void *p) noexcept
{
    cuttlesys::countedFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    cuttlesys::countedFree(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    cuttlesys::countedFree(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    cuttlesys::countedFree(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    cuttlesys::countedFree(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    cuttlesys::countedFree(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    cuttlesys::countedFree(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    cuttlesys::countedFree(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    cuttlesys::countedFree(p);
}
