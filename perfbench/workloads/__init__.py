"""The benchmark's workloads.  Each builder takes (seed, tiny, work_dir) and
returns the job list of one pass; everything it does counts as set-up."""

from . import certify_io, coset_enum, low_index, products

BUILDERS = {
    "coset-enum": coset_enum.build,
    "low-index": low_index.build,
    "products": products.build,
    "certify-io": certify_io.build,
}
