"""Independent oracles used to cross-check the implementation under test.

The AES oracle is OpenSSL via the cryptography package; the field-multiply
oracle is plain double-and-add. Neither shares code with the package.
"""

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes


def oracle_encrypt(key: bytes, block: bytes) -> bytes:
    enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return enc.update(block) + enc.finalize()


def flat_index(row: int, col: int) -> int:
    # FIPS-197 3.4: the state byte at (row, col) is input byte 4*col + row
    return 4 * col + row


def oracle_decrypt(key: bytes, block: bytes) -> bytes:
    dec = Cipher(algorithms.AES(key), modes.ECB()).decryptor()
    return dec.update(block) + dec.finalize()


def oracle_gf_mul(a: int, b: int) -> int:
    # shift-and-add multiplication, reducing by x^8+x^4+x^3+x+1
    acc = 0
    for _ in range(8):
        if b & 1:
            acc ^= a
        b >>= 1
        carry = a & 0x80
        a = (a << 1) & 0xFF
        if carry:
            a ^= 0x1B
    return acc
