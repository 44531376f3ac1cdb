"""Emulated keyslot crypto engine with the short-input borrow quirk.

The engine holds a table of key slots. Master slots may only encrypt into
another slot, never to memory, so their ciphertexts stay hidden. The quirk
that defeats this: the output block of the last successful operation is
never cleared, and an input shorter than 16 bytes is completed with the
trailing bytes of that stale block. Chaining short encryptions under a
known key therefore leaks the hidden block piecewise; `run_borrow_chain`
captures the artifacts the brute-force stage consumes.

The engine is stateful with a single-writer contract: callers serialize
`execute` calls. It may be handed between threads but not shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .aes import ROUNDS_BY_KEY_LEN, bytes_from_hex, expand_key
from .faults import FaultSpec, decrypt_with_faults, encrypt_with_faults

__all__ = [
    "KeySlot",
    "KeyslotEngine",
    "SlotError",
    "BorrowArtifacts",
    "slave_key_from_block",
    "run_borrow_chain",
    "artifacts_to_dict",
    "artifacts_from_dict",
]


class SlotError(Exception):
    """Slot missing, disabled, or used against its permission bit."""


@dataclass
class KeySlot:
    key: bytes  # 32 bytes; shorter operations use its prefix
    master: bool = False
    enabled: bool = True

    def __post_init__(self):
        if len(self.key) != 32:
            raise ValueError("slots store 32-byte keys")


def slave_key_from_block(block: bytes) -> bytes:
    """The 256-bit key a slot holds after a 16-byte block was written to it.

    The written block becomes the first half; the second half is zero.
    The borrow-chain brute force relies on this same convention.
    """
    if len(block) != 16:
        raise ValueError("slot writes are single 16-byte blocks")
    return block + bytes(16)


@dataclass
class KeyslotEngine:
    """Keyed block engine with slot table, output register, and borrow fill."""

    slots: dict[int, KeySlot] = field(default_factory=dict)
    last_output: bytes = bytes(16)

    def add_slot(self, slot_id: int, key: bytes, master: bool = False) -> None:
        self.slots[slot_id] = KeySlot(key=key, master=master)

    def _resolve_key(self, key_source, key_size: int) -> tuple[bytes, KeySlot | None]:
        key_len = key_size // 8
        if key_size % 8 or key_len not in ROUNDS_BY_KEY_LEN:
            raise ValueError(f"key_size must be 128, 192 or 256, got {key_size}")
        if isinstance(key_source, bool):  # an int, but never a slot id
            raise ValueError(f"key_source must be a slot id or a raw key, got {key_source!r}")
        if isinstance(key_source, int):
            slot = self.slots.get(key_source)
            if slot is None:
                raise SlotError(f"no such slot {key_source:#x}")
            if not slot.enabled:
                raise SlotError(f"slot {key_source:#x} is disabled")
            return slot.key[:key_len], slot
        if len(key_source) != key_len:
            raise ValueError(f"raw key must be {key_len} bytes for AES-{key_size}")
        return bytes(key_source), None

    def execute(
        self,
        op: str,
        key_source,
        key_size: int,
        data: bytes,
        dest: int | str = "memory",
        faults: tuple[FaultSpec, ...] = (),
    ) -> bytes | None:
        """One engine operation; returns the output only for memory dests.

        `key_source` is a slot id (int) or a raw key. `data` is 1..16
        bytes: anything short is completed with the trailing bytes of the
        previous output block before processing. Master slots require a
        slot destination. The output block always lands in the internal
        register, whatever the destination.
        """
        if op not in ("encrypt", "decrypt"):
            raise ValueError(f"op must be 'encrypt' or 'decrypt', got {op!r}")
        if not 1 <= len(data) <= 16:
            raise ValueError("engine operations take 1..16 bytes")
        if dest != "memory" and (not isinstance(dest, int) or isinstance(dest, bool)):
            raise ValueError(f"dest must be 'memory' or a slot id, got {dest!r}")
        key, slot = self._resolve_key(key_source, key_size)
        if slot is not None and slot.master and dest == "memory":
            raise SlotError("master slots may only write to another slot")

        block = data + self.last_output[len(data):]
        ks = expand_key(key)
        if op == "encrypt":
            out = encrypt_with_faults(block, ks, faults)
        else:
            out = decrypt_with_faults(block, ks, faults)

        self.last_output = out
        if dest == "memory":
            return out
        self.slots[dest] = KeySlot(key=slave_key_from_block(out), master=False, enabled=True)
        return None


@dataclass(frozen=True)
class BorrowArtifacts:
    """Ciphertexts leaked by the borrow chain, plus what busting them needs.

    `stage_cts` are the known-key encryptions in recovery order: the first
    pins the hidden block's last chunk, each following one the chunk before
    it. `slave_ct` is the slave-slot encryption of the zero block that pins
    the head chunk. At the default 32-bit chunk width, stage_cts is the
    (c1, c2, c3) triple and slave_ct is c4.
    """

    stage_cts: tuple[bytes, ...]
    slave_ct: bytes
    fixed_key: bytes
    chunk_bits: int = 32

    def __post_init__(self):
        if self.chunk_bits not in (8, 16, 32):  # the widths that divide a 16-byte block
            raise ValueError(f"chunk_bits must be 8, 16 or 32, got {self.chunk_bits}")
        chunk = self.chunk_bits // 8
        if len(self.stage_cts) != 16 // chunk - 1:
            raise ValueError(
                f"{self.chunk_bits}-bit chunks need {16 // chunk - 1} stage ciphertexts, "
                f"got {len(self.stage_cts)}"
            )
        for ct in (*self.stage_cts, self.slave_ct):
            if len(ct) != 16:
                raise ValueError("artifact blocks must be 16 bytes")
        if len(self.fixed_key) != 16:
            raise ValueError("the fixed key is a 16-byte AES-128 key")


def run_borrow_chain(
    engine: KeyslotEngine,
    master_slot: int,
    slave_slot: int,
    hidden_input: bytes,
    fixed_key: bytes,
    faults: tuple[FaultSpec, ...] = (),
    chunk_bits: int = 32,
) -> BorrowArtifacts:
    """Leak a master-slot operation's output through the borrow quirk.

    Steps: decrypt `hidden_input` under the master slot into the slave slot
    (the output block H stays in the engine register); then encrypt ever
    longer zero buffers under `fixed_key` to memory, decrypting each result
    again to restore the register (every run zeroes more of the head, but
    the tail each later run borrows is still intact); finally encrypt the
    zero block under the slave slot. The returned artifacts determine H
    completely.
    """
    chunk = chunk_bits // 8
    engine.execute("decrypt", master_slot, 256, hidden_input, dest=slave_slot, faults=faults)

    generated = []
    for zeros in range(chunk, 16, chunk):
        ct = engine.execute("encrypt", fixed_key, 128, bytes(zeros))
        generated.append(ct)
        engine.execute("decrypt", fixed_key, 128, ct)
    slave_ct = engine.execute("encrypt", slave_slot, 256, bytes(16))
    return BorrowArtifacts(
        # recovery order: most-zeros stage first, it has a single unknown chunk
        stage_cts=tuple(reversed(generated)),
        slave_ct=slave_ct,
        fixed_key=bytes(fixed_key),
        chunk_bits=chunk_bits,
    )


def artifacts_to_dict(art: BorrowArtifacts) -> dict:
    """JSON-ready form: numbered hex blocks c1..cN, the last one the slave's."""
    blocks = {f"c{i + 1}": ct.hex() for i, ct in enumerate(art.stage_cts)}
    blocks[f"c{len(art.stage_cts) + 1}"] = art.slave_ct.hex()
    return {"fixed_key": art.fixed_key.hex(), "chunk_bits": art.chunk_bits, **blocks}


def artifacts_from_dict(raw: dict) -> BorrowArtifacts:
    """Inverse of artifacts_to_dict. `chunk_bits` (default 32) must be an
    integer, and the blocks exactly c1..cN: no gap, no leading zero."""
    try:
        fixed_key = bytes_from_hex(raw["fixed_key"], "fixed_key", (16,))
        chunk_bits = raw.get("chunk_bits", 32)
        names = [k for k in raw if k.startswith("c") and k[1:].isdigit()]
        expected = [f"c{i}" for i in range(1, len(names) + 1)]
        if set(names) != set(expected):
            raise ValueError(f"blocks must be named c1..c{len(names)}, got {', '.join(names)}")
        blocks = [bytes_from_hex(raw[name], name, (16,)) for name in expected]
    except (KeyError, ValueError, TypeError, AttributeError) as err:
        raise ValueError(f"bad artifact object: {err}") from None
    # a JSON boolean parses as a Python int, so bool is ruled out first
    if isinstance(chunk_bits, bool) or not isinstance(chunk_bits, int):
        raise ValueError(f"chunk_bits must be an integer, got {chunk_bits!r}")
    if len(blocks) < 2:
        raise ValueError("artifact object needs blocks c1..cN")
    return BorrowArtifacts(
        stage_cts=tuple(blocks[:-1]),
        slave_ct=blocks[-1],
        fixed_key=fixed_key,
        chunk_bits=chunk_bits,
    )
