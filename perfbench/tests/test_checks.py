"""The per-byte check and the three outcomes of the atomicity verdict."""

from perfbench import checks
from repro.workloads.overlap_stress import OverlapStressWorkload


def _writers(clients=2, regions=2, size=64):
    shape = OverlapStressWorkload(num_clients=clients, regions_per_client=regions,
                                  region_size=size, overlap_fraction=0.5)
    writers = [[(offset, bytes([rank + 1]) * len(data))
                for offset, data in shape.client_pairs(rank)]
               for rank in range(clients)]
    return writers, shape.file_size


def _image(writers, size, order_per_slot):
    """Apply each slot's regions in its own writer order."""
    image = bytearray(size)
    for slot, order in enumerate(order_per_slot):
        for rank in order:
            offset, data = writers[rank][slot]
            image[offset:offset + len(data)] = data
    return bytes(image)


def test_serial_image_passes_both_checks():
    writers, size = _writers()
    image = _image(writers, size, [(0, 1), (0, 1)])
    assert checks.byte_check(image, writers)
    assert checks.atomicity_verdict(image, writers) == checks.VERIFIED


def test_byte_nobody_wrote_fails_the_byte_check():
    writers, size = _writers()
    image = bytearray(_image(writers, size, [(0, 1), (0, 1)]))
    image[writers[0][0][0]] = 0xEE
    assert not checks.byte_check(bytes(image), writers)
    assert checks.atomicity_verdict(bytes(image), writers) == checks.VIOLATED


def test_untouched_byte_must_stay_zero():
    writers, size = _writers()
    image = bytearray(_image(writers, size, [(0, 1), (0, 1)]) + b"\0")
    image[-1] = 1
    assert not checks.byte_check(bytes(image), writers)


def test_interleaved_writers_pass_bytes_but_violate_atomicity():
    writers, size = _writers()
    # writer 1 wins slot 0 and writer 0 wins slot 1: no serial order does that
    image = _image(writers, size, [(0, 1), (1, 0)])
    assert checks.byte_check(image, writers)
    assert checks.atomicity_verdict(image, writers) == checks.VIOLATED


def test_refused_conflict_group_is_unverified_not_violated():
    writers, size = _writers(clients=11, regions=1)
    image = _image(writers, size, [tuple(range(11))])
    assert checks.byte_check(image, writers)
    assert checks.atomicity_verdict(image, writers) == checks.UNVERIFIED
