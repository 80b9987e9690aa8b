package provision

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"dosgi/internal/security"
)

// Keyring maps signer subjects to their signing keys. The reconstruction
// of the certificate store of Parrend & Frénot's secure deployment: an
// artifact is trusted when its signature verifies under the key of a
// signer subject the policy allows to deploy.
type Keyring map[string][]byte

// Sign computes the artifact signature for (signer, digest) under key: an
// HMAC-SHA256 over the signer subject and the content digest, hex-encoded.
func Sign(key []byte, signer, digest string) string {
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte(signer))
	mac.Write([]byte{0})
	mac.Write([]byte(digest))
	return hex.EncodeToString(mac.Sum(nil))
}

// Verifier is the gate every artifact passes before installation: the
// payload must match the advertised content digest, the signature must
// verify under the keyring, and the signer subject must hold the deploy
// permission for the install location in the security policy.
type Verifier struct {
	keyring Keyring
	policy  *security.Policy
}

// NewVerifier builds a verifier. A nil policy skips the policy check
// (the stance of a framework with no SecurityManager installed); an
// artifact whose signer has no keyring entry always fails.
func NewVerifier(keyring Keyring, policy *security.Policy) *Verifier {
	return &Verifier{keyring: keyring, policy: policy}
}

// DeployPermission is the permission an artifact's signer subject must
// hold to install at location.
func DeployPermission(location string) security.Permission {
	return security.NewPermission(security.PermAdmin, location, security.ActionDeploy)
}

// Verify checks payload against art. Any non-nil return wraps
// ErrVerification.
func (v *Verifier) Verify(art Artifact, payload []byte) error {
	if int64(len(payload)) != art.Size {
		return fmt.Errorf("%w: %s: payload is %d bytes, expected %d",
			ErrVerification, art.Location, len(payload), art.Size)
	}
	if _, err := proveDigest(art, payload); err != nil {
		return err
	}
	key, ok := v.keyring[art.Signer]
	if !ok {
		return fmt.Errorf("%w: %s: unknown signer %q", ErrVerification, art.Location, art.Signer)
	}
	want := Sign(key, art.Signer, art.Digest)
	if !hmac.Equal([]byte(want), []byte(art.Signature)) {
		return fmt.Errorf("%w: %s: bad signature from %q", ErrVerification, art.Location, art.Signer)
	}
	if v.policy != nil {
		if err := v.policy.Check(art.Signer, DeployPermission(art.Location)); err != nil {
			return fmt.Errorf("%w: %w", ErrVerification, err)
		}
	}
	return nil
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}
