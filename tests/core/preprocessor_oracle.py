"""The per-object assignment the pre-processor replaced, kept as its oracle.

``QueryPreProcessor._assign_objects`` once ran one layout search per object:
:func:`assign_per_object` is that loop, verbatim.  The live code skips the
search for an object that only the previous object's bucket covers, and
must give exactly this mapping: the same keys in the same first-touch
order, and the same objects in the same order in each bucket.
"""

from typing import Dict, List, Sequence

from repro.storage.partitioner import PartitionLayout
from repro.workload.query import CrossMatchObject


def assign_per_object(
    layout: PartitionLayout, objects: Sequence[CrossMatchObject]
) -> Dict[int, List[CrossMatchObject]]:
    """Assign each object to every bucket that overlaps it, one search per object."""
    assignments: Dict[int, List[CrossMatchObject]] = {}
    indices_for_range = layout.bucket_indices_for_range
    for obj in objects:
        # An empty span: the object's bounding box falls outside the
        # partitioned table (e.g. outside the survey footprint); it
        # simply has no potential matches at this site.
        for bucket_index in indices_for_range(obj.htm_range):
            assignments.setdefault(bucket_index, []).append(obj)
    return assignments
