/**
 * @file
 * The result store under its paragraph-serve names. The store itself lives
 * in engine/result_store.hpp, where paragraph-sweep's `--journal` uses it
 * too; this header keeps serve::ResultStore, serve::ResultKey and
 * serve::SyncPolicy working for code written against the daemon.
 */

#ifndef PARAGRAPH_SERVE_RESULT_STORE_HPP
#define PARAGRAPH_SERVE_RESULT_STORE_HPP

#include "engine/result_store.hpp"

namespace paragraph {
namespace serve {

using engine::ResultKey;
using engine::ResultStore;
using engine::SyncPolicy;

} // namespace serve
} // namespace paragraph

#endif // PARAGRAPH_SERVE_RESULT_STORE_HPP
