//! Device-side layout of database sequences and query profiles.
//!
//! Residues are packed four per 32-bit word, as CUDASW++ stores them.
//! Two layouts exist because the two kernels access memory differently:
//!
//! * **Interleaved** (inter-task): the group's sequences are transposed so
//!   that word `w` of thread `t` lives at `base + w·width + t`. Adjacent
//!   threads then read adjacent words — the fully-coalesced pattern.
//! * **Sequential** (intra-task): one block works on one sequence, whose
//!   words are contiguous.

use gpu_sim::{DevicePtr, GpuDevice, GpuError, TexRef};
use sw_align::PackedProfile;
use sw_db::Sequence;

/// Pack residue codes four per word (little-endian lanes).
pub fn pack_residues(residues: &[u8]) -> Vec<u32> {
    residues
        .chunks(4)
        .map(|chunk| {
            let mut bytes = [0u8; 4];
            bytes[..chunk.len()].copy_from_slice(chunk);
            u32::from_le_bytes(bytes)
        })
        .collect()
}

/// Extract residue `k` (0..4) from a packed word.
#[inline]
pub fn unpack_residue(word: u32, k: usize) -> u8 {
    debug_assert!(k < 4);
    (word >> (8 * k)) as u8
}

/// An inter-task group staged on the device in interleaved layout.
#[derive(Debug, Clone)]
pub struct GroupImage {
    /// Interleaved residue words.
    pub residues: DevicePtr,
    /// Texture binding over the residues (CUDASW++ reads database
    /// sequences through texture memory).
    pub tex: TexRef,
    /// Number of threads/sequences (the interleave stride).
    pub width: usize,
    /// Words per sequence slot (`ceil(max_len / 4)`).
    pub words_per_seq: usize,
    /// Host copy of sequence lengths (kernel parameter memory).
    pub lengths: Vec<usize>,
    /// Output scores, one word per sequence.
    pub scores: DevicePtr,
}

impl GroupImage {
    /// Stage `group` on `dev`. Returns the image and the host→device copy
    /// time in simulated seconds.
    pub fn upload(dev: &mut GpuDevice, group: &[Sequence]) -> Result<(Self, f64), GpuError> {
        let width = group.len();
        let max_len = group.iter().map(|s| s.len()).max().unwrap_or(0);
        let words_per_seq = max_len.div_ceil(4);
        let mut image = vec![0u32; width * words_per_seq];
        for (t, seq) in group.iter().enumerate() {
            for (w, word) in pack_residues(&seq.residues).into_iter().enumerate() {
                image[w * width + t] = word;
            }
        }
        let residues = dev.alloc(image.len().max(1))?;
        let secs = dev.copy_to_device(residues, &image)?;
        let tex = dev.bind_texture(residues, image.len().max(1));
        let scores = dev.alloc(width.max(1))?;
        Ok((
            Self {
                residues,
                tex,
                width,
                words_per_seq,
                lengths: group.iter().map(|s| s.len()).collect(),
                scores,
            },
            secs,
        ))
    }

    /// Word address of word `w` of thread `t`'s sequence.
    #[inline]
    pub fn word_addr(&self, t: usize, w: usize) -> usize {
        self.residues.addr() + w * self.width + t
    }
}

/// A single sequence staged sequentially (intra-task).
#[derive(Debug, Clone)]
pub struct SeqImage {
    /// Packed residue words, contiguous.
    pub residues: DevicePtr,
    /// Texture binding over the residues.
    pub tex: TexRef,
    /// Length in residues.
    pub len: usize,
    /// Output score word.
    pub score: DevicePtr,
}

impl SeqImage {
    /// Stage `seq` on `dev`. Returns the image and copy seconds.
    pub fn upload(dev: &mut GpuDevice, seq: &Sequence) -> Result<(Self, f64), GpuError> {
        let words = pack_residues(&seq.residues);
        let residues = dev.alloc(words.len().max(1))?;
        let secs = dev.copy_to_device(residues, &words)?;
        let tex = dev.bind_texture(residues, words.len().max(1));
        let score = dev.alloc(1)?;
        Ok((
            Self {
                residues,
                tex,
                len: seq.len(),
                score,
            },
            secs,
        ))
    }

    /// Word address of packed word `w`.
    #[inline]
    pub fn word_addr(&self, w: usize) -> usize {
        self.residues.addr() + w
    }
}

/// The packed query profile staged on the device and bound to texture.
#[derive(Debug, Clone)]
pub struct ProfileImage {
    /// Texture binding over the packed words.
    pub tex: TexRef,
    /// Words per alphabet row.
    pub words_per_row: usize,
    /// Query length (unpadded).
    pub query_len: usize,
}

impl ProfileImage {
    /// Stage `profile` on `dev`. Returns the image and copy seconds.
    pub fn upload(dev: &mut GpuDevice, profile: &PackedProfile) -> Result<(Self, f64), GpuError> {
        let words_per_row = profile.words_per_row();
        let total = profile.alphabet_size() * words_per_row;
        let mut host = Vec::with_capacity(total);
        for a in 0..profile.alphabet_size() as u8 {
            for w in 0..words_per_row {
                host.push(profile.word(a, w));
            }
        }
        let ptr = dev.alloc(total.max(1))?;
        let secs = dev.copy_to_device(ptr, &host)?;
        let tex = dev.bind_texture(ptr, total.max(1));
        Ok((
            Self {
                tex,
                words_per_row,
                query_len: profile.query_len(),
            },
            secs,
        ))
    }

    /// Texel index of the word covering query positions `4·w..4·w+4` for
    /// residue `a`.
    #[inline]
    pub fn word_index(&self, a: u8, w: usize) -> usize {
        a as usize * self.words_per_row + w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use sw_align::ScoringMatrix;
    use sw_db::Sequence;

    #[test]
    fn packing_roundtrip() {
        let residues = vec![1u8, 2, 3, 4, 5, 6];
        let words = pack_residues(&residues);
        assert_eq!(words.len(), 2);
        for (i, &r) in residues.iter().enumerate() {
            assert_eq!(unpack_residue(words[i / 4], i % 4), r);
        }
        // Padding lanes are zero.
        assert_eq!(unpack_residue(words[1], 3), 0);
    }

    #[test]
    fn empty_packing() {
        assert!(pack_residues(&[]).is_empty());
    }

    #[test]
    fn group_image_interleaves() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        let group = vec![
            Sequence::new("a", vec![1, 2, 3, 4, 5]),
            Sequence::new("b", vec![9, 8, 7]),
        ];
        let (img, _) = GroupImage::upload(&mut dev, &group).unwrap();
        assert_eq!(img.width, 2);
        assert_eq!(img.words_per_seq, 2);
        // Word 0 of thread 0 and thread 1 are adjacent.
        assert_eq!(img.word_addr(1, 0), img.word_addr(0, 0) + 1);
        let (data, _) = dev.copy_from_device(img.residues, 4).unwrap();
        assert_eq!(unpack_residue(data[0], 0), 1); // t0 w0
        assert_eq!(unpack_residue(data[1], 0), 9); // t1 w0
        assert_eq!(unpack_residue(data[2], 0), 5); // t0 w1
        assert_eq!(unpack_residue(data[2], 1), 0); // padding
    }

    #[test]
    fn seq_image_sequential() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        let seq = Sequence::new("s", (0..10).collect());
        let (img, _) = SeqImage::upload(&mut dev, &seq).unwrap();
        assert_eq!(img.len, 10);
        assert_eq!(img.word_addr(1), img.word_addr(0) + 1);
        let (data, _) = dev.copy_from_device(img.residues, 3).unwrap();
        assert_eq!(unpack_residue(data[2], 1), 9);
    }

    #[test]
    fn profile_image_layout() {
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c1060());
        let matrix = ScoringMatrix::blosum62();
        let query: Vec<u8> = (0..9).collect();
        let profile = PackedProfile::build(&matrix, &query);
        let (img, _) = ProfileImage::upload(&mut dev, &profile).unwrap();
        assert_eq!(img.words_per_row, 3);
        assert_eq!(img.query_len, 9);
        // Texel for residue 5, word 2, matches the host profile.
        let idx = img.word_index(5, 2);
        let (data, _) = dev
            .copy_from_device(img.tex.base(), img.tex.words())
            .unwrap();
        assert_eq!(data[idx], profile.word(5, 2));
    }
}
