// The seqlocked instantiations (see ht/cuckoo_table_impl.h).
#include "ht/cuckoo_table_impl.h"

namespace simdht {

template class CuckooTable<std::uint16_t, std::uint32_t, SeqlockWriters>;
template class CuckooTable<std::uint32_t, std::uint32_t, SeqlockWriters>;
template class CuckooTable<std::uint64_t, std::uint64_t, SeqlockWriters>;

}  // namespace simdht
